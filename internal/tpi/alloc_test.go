package tpi

import (
	"fmt"
	"testing"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/testability"
)

// cutsAllocs measures the allocations of one P1 plan at k=4 on a random
// tree, the serve cuts shape.
func cutsAllocs(t *testing.T, leaves int) float64 {
	t.Helper()
	c, err := cli.Generate(fmt.Sprintf("tree:leaves=%d,seed=1", leaves))
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		if _, err := PlanCutsDP(c, 4); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPlanCutsDPAllocsBounded pins the cut DP's allocation budget. Every
// node's chain and final Pareto set live in one arena reused across the
// threshold search, and each merge reuses its scratch; allocating them
// per node and per threshold cost 317k allocations for this plan.
func TestPlanCutsDPAllocsBounded(t *testing.T) {
	if got := cutsAllocs(t, 2000); got > 200 {
		t.Fatalf("PlanCutsDP on a 2000-leaf tree costs %.0f allocs/op, want <= 200 (per-node allocation crept back in)", got)
	}
}

// TestPlanCutsDPAllocsSizeIndependent pins the sharper invariant: only
// the arena's amortized growth and the per-plan setup may scale with
// the circuit, so ten times the leaves adds only a few allocations.
func TestPlanCutsDPAllocsSizeIndependent(t *testing.T) {
	small := cutsAllocs(t, 200)
	large := cutsAllocs(t, 2000)
	if large-small > 16 {
		t.Fatalf("PlanCutsDP allocs grew with circuit size: 200 leaves %.0f vs 2000 leaves %.0f (want delta <= 16)", small, large)
	}
}

// observeDPAllocs measures the allocations one P2 plan at k=8 makes on
// top of its coverage model, which allocates per gate, and the plan's
// DP state count.
func observeDPAllocs(t *testing.T, leaves int) (float64, int64) {
	t.Helper()
	c, err := cli.Generate(fmt.Sprintf("tree:leaves=%d,seed=1", leaves))
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	var states int64
	plan := testing.AllocsPerRun(3, func() {
		p, err := PlanObservationPointsDP(c, faults, 8, 1.0/4096, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		states = p.StatesVisited
	})
	model := testing.AllocsPerRun(3, func() { newOPModel(c, faults, OPOptions{}) })
	return plan - model, states
}

// TestPlanObservationPointsDPAllocsBounded pins the observe DP's
// allocation budget. Every memo vector comes from one arena and the
// knapsacks share their scratch; allocating a vector per child and two
// per state cost 10,900 allocations on the 200-leaf tree and 140,700 on
// the 2000-leaf one. Only the arena's chunks and the per-plan tables may
// grow with the states visited, so thirteen times the states adds only a
// few allocations.
func TestPlanObservationPointsDPAllocsBounded(t *testing.T) {
	small, smallStates := observeDPAllocs(t, 200)
	large, largeStates := observeDPAllocs(t, 2000)
	if largeStates < 10*smallStates {
		t.Fatalf("states %d vs %d: the sizes no longer differ enough to show growth", smallStates, largeStates)
	}
	if small > 64 || large > 64 {
		t.Fatalf("the observe DP costs %.0f allocs/op over %d states and %.0f over %d, want <= 64 (per-state allocation crept back in)",
			small, smallStates, large, largeStates)
	}
	if large-small > 16 {
		t.Fatalf("observe DP allocs grew with the states visited: %.0f at %d states vs %.0f at %d (want delta <= 16)",
			small, smallStates, large, largeStates)
	}
}

// TestOverlayEvaluationAllocFree pins the control planner's inner step:
// setting a candidate on the overlay and counting the covered faults
// reuses the overlay's buffers and allocates nothing.
func TestOverlayEvaluationAllocFree(t *testing.T) {
	c, err := cli.Generate("dag:gates=300,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	ov := testability.NewOverlay(c, testability.COPOptions{})
	kind := netlist.Control0
	got := testing.AllocsPerRun(50, func() {
		ov.SetControlPoint(120, kind)
		countCovered(&ov.COP, faults, 1.0/4096)
		kind ^= netlist.Control0 ^ netlist.Control1
	})
	if got != 0 {
		t.Fatalf("one overlay evaluation costs %.1f allocs/op, want 0", got)
	}
}
