package tpi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

func TestOPDPMatchesExhaustiveOnTrees(t *testing.T) {
	// On fanout-free circuits the per-region tree DP plus knapsack is a
	// globally optimal placement under the coverage model.
	for seed := int64(0); seed < 8; seed++ {
		c := gen.RandomTree(seed, 9, gen.TreeOptions{})
		faults := fault.CollapsedUniverse(c)
		for _, k := range []int{1, 2} {
			for _, dth := range []float64{0.05, 0.15, 0.3} {
				dp, err := PlanObservationPointsDP(c, faults, k, dth, OPOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ex, err := PlanObservationPointsExhaustive(c, faults, k, dth, OPOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if dp.CoveredAfter != ex.CoveredAfter {
					t.Errorf("seed %d k %d dth %.2f: DP covers %d, exhaustive %d (DP %v, EX %v)",
						seed, k, dth, dp.CoveredAfter, ex.CoveredAfter, dp.Points, ex.Points)
				}
				if len(dp.Points) > k {
					t.Errorf("budget exceeded: %v", dp.Points)
				}
			}
		}
	}
}

func TestOPDPMatchesExhaustiveOnReconvergent(t *testing.T) {
	// The DP optimises the same in-region coverage model the exhaustive
	// planner evaluates, so they must agree on general circuits too.
	for seed := int64(0); seed < 4; seed++ {
		c := gen.RandomDAG(seed, 6, 14, gen.DAGOptions{})
		faults := fault.CollapsedUniverse(c)
		for _, dth := range []float64{0.05, 0.2} {
			dp, err := PlanObservationPointsDP(c, faults, 2, dth, OPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := PlanObservationPointsExhaustive(c, faults, 2, dth, OPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if dp.CoveredAfter != ex.CoveredAfter {
				t.Errorf("seed %d dth %.2f: DP %d != exhaustive %d", seed, dth, dp.CoveredAfter, ex.CoveredAfter)
			}
		}
	}
}

func TestOPDPNeverWorseThanGreedyOrRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := gen.RandomDAG(seed, 10, 60, gen.DAGOptions{})
		faults := fault.CollapsedUniverse(c)
		const k, dth = 4, 0.1
		dp, err := PlanObservationPointsDP(c, faults, k, dth, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := PlanObservationPointsGreedy(c, faults, k, dth, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := PlanObservationPointsRandom(c, faults, k, dth, seed, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if dp.CoveredAfter < gr.CoveredAfter {
			t.Errorf("seed %d: DP %d worse than greedy %d", seed, dp.CoveredAfter, gr.CoveredAfter)
		}
		if dp.CoveredAfter < rnd.CoveredAfter {
			t.Errorf("seed %d: DP %d worse than random %d", seed, dp.CoveredAfter, rnd.CoveredAfter)
		}
		if gr.CoveredBefore != dp.CoveredBefore || rnd.CoveredBefore != dp.CoveredBefore {
			t.Errorf("planners disagree on baseline coverage")
		}
	}
}

func TestOPDPReconstructionConsistent(t *testing.T) {
	// The reconstructed placement must achieve exactly the DP value when
	// re-evaluated by the independent model evaluator.
	for seed := int64(0); seed < 6; seed++ {
		c := gen.RandomTree(seed, 20, gen.TreeOptions{})
		faults := fault.CollapsedUniverse(c)
		dp, err := PlanObservationPointsDP(c, faults, 3, 0.1, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := ModelCoveredCount(c, faults, dp.Points, 0.1, OPOptions{}); got != dp.CoveredAfter {
			t.Errorf("seed %d: reconstruction covers %d, plan claims %d", seed, got, dp.CoveredAfter)
		}
	}
}

func TestOPDPZeroBudgetEqualsBaseline(t *testing.T) {
	c := gen.C17()
	faults := fault.CollapsedUniverse(c)
	dp, err := PlanObservationPointsDP(c, faults, 0, 0.1, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.CoveredAfter != dp.CoveredBefore || len(dp.Points) != 0 {
		t.Errorf("zero budget: %+v", dp)
	}
}

func TestOPHelpsPropagationLimitedFault(t *testing.T) {
	// Circuit: an easy-to-excite signal buried behind a blocking AND cone:
	// x = OR(a,b); out = AND(x, c, d, e, f). Faults on x propagate with
	// probability 2^-4 = 0.0625. An OP at x lifts them to excitation-only.
	b := netlist.NewBuilder("blocked")
	a := b.Input("a")
	x0 := b.Input("b")
	cc := b.Input("c")
	d := b.Input("d")
	e := b.Input("e")
	f := b.Input("f")
	x := b.OrGate("x", a, x0)
	out := b.AndGate("out", x, cc, d, e, f)
	b.MarkOutput(out)
	c := b.MustBuild()
	faults := fault.CollapsedUniverse(c)
	const dth = 0.2
	dp, err := PlanObservationPointsDP(c, faults, 1, dth, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.CoveredAfter <= dp.CoveredBefore {
		t.Errorf("OP did not improve coverage: before %d after %d", dp.CoveredBefore, dp.CoveredAfter)
	}
	// The chosen point must be on the blocked side (x or upstream of x),
	// not on the easy AND inputs.
	if len(dp.Points) != 1 {
		t.Fatalf("points = %v", dp.Points)
	}
	xid, _ := c.GateByName("x")
	p := dp.Points[0]
	inXCone := false
	for _, g := range c.FaninCone(xid) {
		if g == p {
			inXCone = true
		}
	}
	if p != xid && !inXCone {
		t.Errorf("OP placed at %s, expected at/under x", c.GateName(p))
	}
}

func TestOPPlanImprovesRealFaultCoverage(t *testing.T) {
	// End-to-end: plan OPs on a propagation-limited circuit, insert them,
	// and confirm the fault simulator sees higher coverage with a short
	// pattern budget.
	c := gen.RPResistant(21, 2, 10, 40)
	faults := fault.CollapsedUniverse(c)
	dp, err := PlanObservationPointsDP(c, faults, 6, 1.0/256, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Points) == 0 {
		t.Skip("planner found no useful OPs on this instance")
	}
	mod, err := c.InsertTestPoints(dp.TestPoints())
	if err != nil {
		t.Fatal(err)
	}
	before, err := fsim.Run(c, faults, pattern.NewLFSR(5), fsim.Options{MaxPatterns: 2048, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := fsim.Run(mod, faults, pattern.NewLFSR(5), fsim.Options{MaxPatterns: 2048, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Coverage() < before.Coverage() {
		t.Errorf("observation points reduced real coverage: %.4f -> %.4f", before.Coverage(), after.Coverage())
	}
}

func TestOPNegativeBudget(t *testing.T) {
	c := gen.C17()
	if _, err := PlanObservationPointsDP(c, fault.CollapsedUniverse(c), -1, 0.1, OPOptions{}); err != ErrBudgetNegative {
		t.Errorf("expected ErrBudgetNegative, got %v", err)
	}
}

// TestOPDPBudgetClampedToCircuit: a plan holds at most one OP per
// signal, so a budget beyond the gate count must plan exactly as the
// gate count does, and as fast.
func TestOPDPBudgetClampedToCircuit(t *testing.T) {
	c := gen.C17()
	faults := fault.CollapsedUniverse(c)
	want, err := PlanObservationPointsDP(c, faults, c.NumGates(), 0.1, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := PlanObservationPointsDP(c, faults, 1_000_000, 0.1, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("budget 1e6 on c17 took %v", d)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budget 1e6 plan %+v, want the budget-%d plan %+v", got, c.NumGates(), want)
	}
}

// TestOPDPHonorsDeadlineAcrossRegions pins the polls outside the region
// trees. Every gate of this ladder is its own fanout-free region, so the
// region DPs finish at once and the cross-region knapsack, O(regions ×
// k²), holds all the work: without a poll there it ran a second past
// its deadline and returned a plan.
func TestOPDPHonorsDeadlineAcrossRegions(t *testing.T) {
	const n = 600
	b := netlist.NewBuilder("ladder")
	in := make([]int, n+1)
	for i := range in {
		in[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < n; i++ {
		b.MarkOutput(b.AndGate(fmt.Sprintf("g%d", i), in[i], in[i+1]))
	}
	c := b.MustBuild()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := PlanObservationPointsDPContext(ctx, c, fault.CollapsedUniverse(c), c.NumGates(), 0.1, OPOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("deadline of 200ms honoured after %v", d)
	}
}

// TestOPDPHonorsDeadlineInCoverageWalk pins the coverage model's walk
// from each faulty node up to its stem: on a 20,000-inverter chain over
// the full fault universe (the collapsed one keeps only two faults) one
// walk costs O(gates × depth), about a second, so it must poll.
func TestOPDPHonorsDeadlineInCoverageWalk(t *testing.T) {
	const n = 20000
	b := netlist.NewBuilder("chain")
	prev := b.Input("x")
	for i := 0; i < n; i++ {
		prev = b.NotGate(fmt.Sprintf("g%d", i), prev)
	}
	b.MarkOutput(prev)
	c := b.MustBuild()
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := PlanObservationPointsDPContext(ctx, c, fault.Universe(c), 4, 1.0/4096, OPOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > deadline+250*time.Millisecond {
		t.Errorf("deadline of %v honoured after %v", deadline, d)
	}
}
