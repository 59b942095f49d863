package tpi

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/testability"
)

func TestControlPointsFixExcitationLimitedFaults(t *testing.T) {
	// A 16-wide AND cone: output s-a-0 needs all-ones (p = 2^-16).
	// Observation points cannot help; an OR-type (force-1) control point
	// in the cone must.
	c := gen.AndCone(16)
	faults := fault.CollapsedUniverse(c)
	const dth = 1.0 / 512
	cp, err := PlanControlPointsGreedy(c, faults, 2, dth, CPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cp.CoveredAfter <= cp.CoveredBefore {
		t.Fatalf("control points did not improve modelled coverage: %d -> %d", cp.CoveredBefore, cp.CoveredAfter)
	}
	// The selected points must include at least one Control1 (OR-type):
	// the cone needs its lines pulled toward 1.
	hasControl1 := false
	for _, p := range cp.Points {
		if p.Kind == netlist.Control1 {
			hasControl1 = true
		}
	}
	if !hasControl1 {
		t.Errorf("expected an OR-type control point in an AND cone, got %v", cp.Points)
	}
}

func TestControlPointsRealCoverageUplift(t *testing.T) {
	// End-to-end on the AND cone: with control points inserted and 4096
	// patterns, real fault coverage must beat the unmodified circuit.
	c := gen.AndCone(16)
	faults := fault.CollapsedUniverse(c)
	cp, err := PlanControlPointsGreedy(c, faults, 2, 1.0/512, CPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod := cp.Modified
	before, err := fsim.Run(c, faults, pattern.NewLFSR(9), fsim.Options{MaxPatterns: 4096, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := fsim.Run(mod, faults, pattern.NewLFSR(9), fsim.Options{MaxPatterns: 4096, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Coverage() <= before.Coverage() {
		t.Errorf("real coverage did not improve: %.4f -> %.4f", before.Coverage(), after.Coverage())
	}
}

func TestControlPointsStopWhenNoGain(t *testing.T) {
	// A parity tree is perfectly random-pattern testable: every fault has
	// detection probability 0.5. No control point can add coverage at a
	// modest threshold, so the planner must stop early.
	c := gen.ParityTree(8)
	faults := fault.CollapsedUniverse(c)
	cp, err := PlanControlPointsGreedy(c, faults, 4, 0.1, CPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Points) != 0 {
		t.Errorf("planner inserted %d pointless control points", len(cp.Points))
	}
	if cp.CoveredBefore != len(faults) {
		t.Errorf("parity tree baseline coverage %d/%d", cp.CoveredBefore, len(faults))
	}
}

func TestControlPointsNegativeBudget(t *testing.T) {
	c := gen.C17()
	if _, err := PlanControlPointsGreedy(c, fault.CollapsedUniverse(c), -1, 0.1, CPOptions{}); err != ErrBudgetNegative {
		t.Errorf("expected ErrBudgetNegative, got %v", err)
	}
}

func TestCPPlanApplyPreservesFunction(t *testing.T) {
	// Applying a CP plan and driving all test inputs passive must leave
	// the original outputs intact (checked over exhaustive vectors).
	c := gen.AndCone(8)
	faults := fault.CollapsedUniverse(c)
	cp, err := PlanControlPointsGreedy(c, faults, 2, 1.0/64, CPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Points) == 0 {
		t.Skip("no control points selected")
	}
	mod := cp.Modified
	// Passive values: Control0 test input = 1, Control1 test input = 0.
	passive := make(map[string]bool)
	for i := c.NumInputs(); i < mod.NumInputs(); i++ {
		// Inserted test inputs appear after the originals; their passive
		// value depends on the gate they feed (AND -> 1, OR -> 0).
		in := mod.Inputs()[i]
		consumer := mod.Fanout(in)[0]
		passive[mod.GateName(in)] = mod.Type(consumer) == netlist.And
	}
	for v := 0; v < 256; v++ {
		origVals := evalBool(c, func(i int) bool { return v>>uint(i)&1 == 1 })
		modVals := evalBool(mod, func(i int) bool {
			if i < c.NumInputs() {
				return v>>uint(i)&1 == 1
			}
			return passive[mod.GateName(mod.Inputs()[i])]
		})
		for oi, o := range c.Outputs() {
			if origVals[o] != modVals[mod.Outputs()[oi]] {
				t.Fatalf("vector %d: output %d differs with passive control inputs", v, oi)
			}
		}
	}
}

// replayControlPoints is the reference for CPPlan.Modified: it inserts
// the points into c one at a time in selection order, since each was
// selected against the circuit its predecessors built.
func replayControlPoints(c *netlist.Circuit, pts []netlist.TestPoint) (*netlist.Circuit, error) {
	cur := c
	for _, pt := range pts {
		mod, err := cur.InsertTestPoints([]netlist.TestPoint{pt})
		if err != nil {
			return nil, err
		}
		cur = mod
	}
	return cur, nil
}

// TestControlModifiedMatchesReplay holds the circuit the control planner
// builds as it selects to the replay of its points: the same gates
// (names, types and fanins) in the same order, and the same inputs and
// outputs.
func TestControlModifiedMatchesReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *netlist.Circuit
		dth  float64
	}{
		{"and16", gen.AndCone(16), 1.0 / 512},
		{"rpr", gen.RPResistant(3, 3, 12, 60), 1.0 / 1024},
		{"dag300", gen.RandomDAG(1, 16, 300, gen.DAGOptions{}), 1.0 / 4096},
		{"dag800", gen.RandomDAG(3, 16, 800, gen.DAGOptions{}), 1.0 / 4096},
	} {
		faults := fault.CollapsedUniverse(tc.c)
		for _, k := range []int{0, 1, 4} {
			cp, err := PlanControlPointsGreedy(tc.c, faults, k, tc.dth, CPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := replayControlPoints(tc.c, cp.Points)
			if err != nil {
				t.Fatal(err)
			}
			got := cp.Modified
			if got.NumGates() != want.NumGates() {
				t.Fatalf("%s k=%d: %d gates, replay has %d", tc.name, k, got.NumGates(), want.NumGates())
			}
			for id := 0; id < want.NumGates(); id++ {
				if g, w := got.Gate(id), want.Gate(id); g.Name != w.Name || g.Type != w.Type || !slices.Equal(g.Fanin, w.Fanin) {
					t.Fatalf("%s k=%d: gate %d is %+v, replay has %+v", tc.name, k, id, g, w)
				}
			}
			if !slices.Equal(got.Inputs(), want.Inputs()) || !slices.Equal(got.Outputs(), want.Outputs()) {
				t.Errorf("%s k=%d: inputs %v outputs %v, replay has %v and %v",
					tc.name, k, got.Inputs(), got.Outputs(), want.Inputs(), want.Outputs())
			}
		}
	}
}

func evalBool(c *netlist.Circuit, assign func(idx int) bool) []bool {
	vals := make([]bool, c.NumGates())
	for i, in := range c.Inputs() {
		vals[in] = assign(i)
	}
	buf := make([]bool, 0, 8)
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		buf = buf[:0]
		for _, f := range g.Fanin {
			buf = append(buf, vals[f])
		}
		vals[id] = g.Type.Eval(buf)
	}
	return vals
}

func TestHybridPlanOnRPResistant(t *testing.T) {
	// The full flow on a random-pattern-resistant circuit: control points
	// for excitation, observation points for propagation. Real coverage
	// at 8k patterns must improve strictly.
	c := gen.RPResistant(3, 3, 12, 50)
	faults := fault.CollapsedUniverse(c)
	h, err := PlanHybrid(c, faults, 3, 3, 1.0/1024, CPOptions{}, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.AllPoints() == 0 {
		t.Skip("no test points selected on this instance")
	}
	before, err := fsim.Run(c, faults, pattern.NewLFSR(11), fsim.Options{MaxPatterns: 8192, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := fsim.Run(h.Modified, faults, pattern.NewLFSR(11), fsim.Options{MaxPatterns: 8192, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Coverage() <= before.Coverage() {
		t.Errorf("hybrid plan did not improve coverage: %.4f -> %.4f (%d CPs, %d OPs)",
			before.Coverage(), after.Coverage(), len(h.Control.Points), len(h.Observe.Points))
	}
}

// TestControlPointsHonorDeadline pins the deadline on a circuit where
// the candidate search dominates unless it is linear: walking each hard
// fault's fanin and fanout cones into a map, with no poll, answered a
// 500 ms deadline after 5.8 s. The marking sweeps are linear, and each
// candidate evaluation polls. The whole 3-point plan takes about 0.3 s
// on two cores, so the deadline sits well inside it.
func TestControlPointsHonorDeadline(t *testing.T) {
	c, err := cli.Generate("dag:gates=9000,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	const budget = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, err = PlanControlPointsGreedyContext(ctx, c, faults, 3, 1.0/4096, CPOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > budget+250*time.Millisecond {
		t.Errorf("deadline of %v honoured after %v", budget, d)
	}
}

// TestControlCandidatesMatchConeWalks checks the marking sweeps against
// the per-fault cone walks they replace: the same candidates in the same
// order.
func TestControlCandidatesMatchConeWalks(t *testing.T) {
	for _, spec := range []string{"c17", "dag:gates=300,seed=1", "rpr:cones=3,width=12,glue=80,seed=2", "mul:width=5"} {
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.CollapsedUniverse(c)
		co := testability.NewCOP(c, testability.COPOptions{})
		for _, dth := range []float64{1.0 / 4096, 0.02, 0.2} {
			inCone := make(map[int]bool)
			for _, f := range faults {
				if co.DetectProb(f) >= dth {
					continue
				}
				for _, g := range c.FaninCone(f.Gate) {
					inCone[g] = true
				}
				for _, g := range c.FanoutCone(f.Gate) {
					inCone[g] = true
				}
			}
			var want []int
			for g := range inCone {
				if c.Type(g) != netlist.Input {
					want = append(want, g)
				}
			}
			sort.Slice(want, func(i, j int) bool {
				ei := math.Abs(co.Controllability(want[i]) - 0.5)
				ej := math.Abs(co.Controllability(want[j]) - 0.5)
				if ei != ej {
					return ei > ej
				}
				return want[i] < want[j]
			})
			got := controlCandidates(c, co, faults, dth, c.NumGates())
			if !slices.Equal(got, want) {
				t.Errorf("%s dth=%g: sweeps give %d candidates %v, cone walks %d %v", spec, dth, len(got), got, len(want), want)
			}
		}
	}
}
