package atpg

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/testcount"
)

// oracleDetects evaluates both circuit copies on a full vector.
func oracleDetects(c *netlist.Circuit, f fault.Fault, vec []bool) bool {
	eval := func(inject bool) []bool {
		vals := make([]bool, c.NumGates())
		for i, in := range c.Inputs() {
			vals[in] = vec[i]
		}
		for _, id := range c.TopoOrder() {
			g := c.Gate(id)
			if g.Type != netlist.Input {
				in := make([]bool, len(g.Fanin))
				for pin, fin := range g.Fanin {
					in[pin] = vals[fin]
					if inject && !f.IsStem() && f.Gate == id && f.Pin == pin {
						in[pin] = f.Stuck
					}
				}
				vals[id] = g.Type.Eval(in)
			}
			if inject && f.IsStem() && f.Gate == id {
				vals[id] = f.Stuck
			}
		}
		return vals
	}
	good, bad := eval(false), eval(true)
	for _, o := range c.Outputs() {
		if good[o] != bad[o] {
			return true
		}
	}
	return false
}

func oracleDetectable(c *netlist.Circuit, f fault.Fault) bool {
	n := c.NumInputs()
	for v := 0; v < 1<<uint(n); v++ {
		vec := make([]bool, n)
		for i := range vec {
			vec[i] = v>>uint(i)&1 == 1
		}
		if oracleDetects(c, f, vec) {
			return true
		}
	}
	return false
}

func checkPODEMComplete(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	for _, f := range fault.Universe(c) {
		res, err := Generate(c, f, Options{})
		if err != nil {
			t.Fatalf("%s: %v", f.Name(c), err)
		}
		detectable := oracleDetectable(c, f)
		switch res.Status {
		case Detected:
			if !detectable {
				t.Errorf("%s: PODEM claims detected but fault is redundant", f.Name(c))
			} else if !oracleDetects(c, f, res.Vector) {
				t.Errorf("%s: PODEM vector %v does not detect the fault", f.Name(c), res.Vector)
			}
		case Redundant:
			if detectable {
				t.Errorf("%s: PODEM claims redundant but fault is detectable", f.Name(c))
			}
		case Aborted:
			t.Errorf("%s: PODEM aborted on a tiny circuit", f.Name(c))
		}
	}
}

func TestPODEMCompleteOnC17(t *testing.T) {
	checkPODEMComplete(t, gen.C17())
}

func TestPODEMCompleteOnRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		checkPODEMComplete(t, gen.RandomDAG(seed, 8, 25, gen.DAGOptions{}))
	}
}

func TestPODEMCompleteOnTrees(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		checkPODEMComplete(t, gen.RandomTree(seed, 8, gen.TreeOptions{}))
	}
}

func TestPODEMCompleteOnAdderAndParity(t *testing.T) {
	checkPODEMComplete(t, gen.RippleCarryAdder(3))
	checkPODEMComplete(t, gen.ParityTree(6))
}

func TestPODEMFindsRedundancy(t *testing.T) {
	// z = OR(a, AND(b, NOT b)): the AND output s-a-0 is undetectable (the
	// AND is constant 0), as are several related faults.
	b := netlist.NewBuilder("red")
	a := b.Input("a")
	x := b.Input("b")
	nb := b.NotGate("nb", x)
	g := b.AndGate("g", x, nb)
	z := b.OrGate("z", a, g)
	b.MarkOutput(z)
	c := b.MustBuild()
	res, err := Generate(c, fault.Fault{Gate: g, Pin: -1, Stuck: false}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Redundant {
		t.Errorf("AND(b,¬b) s-a-0: status %v, want redundant", res.Status)
	}
	// And the whole-circuit check against the oracle.
	checkPODEMComplete(t, c)
}

func TestGenerateTestsFullCoverage(t *testing.T) {
	// The compacted deterministic test set must detect every collapsed
	// fault when replayed through the fault simulator.
	for _, c := range []*netlist.Circuit{
		gen.C17(),
		gen.RandomDAG(4, 10, 50, gen.DAGOptions{}),
		gen.RippleCarryAdder(4),
	} {
		faults := fault.CollapsedUniverse(c)
		ts, err := GenerateTests(c, faults, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(ts.Aborted) != 0 {
			t.Errorf("%s: %d aborted faults", c.Name(), len(ts.Aborted))
		}
		res, err := fsim.Run(c, faults, pattern.NewVectors(ts.Vectors), fsim.Options{
			MaxPatterns: len(ts.Vectors) + 64,
			DropFaults:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := len(faults) - len(ts.Redundant)
		if got := len(res.FirstDetect); got < want {
			t.Errorf("%s: test set detects %d faults, want >= %d (of %d, %d redundant)",
				c.Name(), got, want, len(faults), len(ts.Redundant))
		}
	}
}

func TestGenerateTestsAtLeastHayesBound(t *testing.T) {
	// On fanout-free circuits the Hayes count is the exact minimum, so a
	// compacted ATPG set can never beat it — and should land close.
	for seed := int64(0); seed < 6; seed++ {
		c := gen.RandomTree(seed, 12, gen.TreeOptions{})
		ct, err := testcount.Compute(c)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := GenerateTests(c, fault.Universe(c), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.Redundant) != 0 {
			t.Errorf("seed %d: fanout-free circuit reported %d redundant faults", seed, len(ts.Redundant))
		}
		min := ct.CircuitTests()
		if len(ts.Vectors) < min {
			t.Errorf("seed %d: ATPG produced %d vectors, below the proven minimum %d", seed, len(ts.Vectors), min)
		}
		if len(ts.Vectors) > 3*min {
			t.Errorf("seed %d: ATPG produced %d vectors, suspiciously far above minimum %d", seed, len(ts.Vectors), min)
		}
	}
}

func TestGenerateTestsEmptyFaultList(t *testing.T) {
	if _, err := GenerateTests(gen.C17(), nil, Options{}); err != ErrNoFaults {
		t.Errorf("expected ErrNoFaults, got %v", err)
	}
}

func TestGenerateBadFault(t *testing.T) {
	c := gen.C17()
	if _, err := Generate(c, fault.Fault{Gate: 999, Pin: -1}, Options{}); err == nil {
		t.Error("expected error for out-of-range fault")
	}
	if _, err := Generate(c, fault.Fault{Gate: 5, Pin: 7}, Options{}); err == nil {
		t.Error("expected error for out-of-range pin")
	}
}

func TestValueAndStatusStrings(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" || X.String() != "X" {
		t.Error("Value strings wrong")
	}
	if Detected.String() != "detected" || Redundant.String() != "redundant" || Aborted.String() != "aborted" {
		t.Error("Status strings wrong")
	}
}

// TestGenerateContextCanceled pins the poll in the PODEM search loop: a
// cancelled context stops the search at its first decision.
func TestGenerateContextCanceled(t *testing.T) {
	c := gen.ParityTree(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := GenerateContext(ctx, c, fault.Universe(c)[0], Options{}); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("GenerateContext on a cancelled context = %+v, %v; want nil, context.Canceled", res, err)
	}
}
