package testability

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// dupPinCircuit has a gate reading one signal on two pins, so that
// signal's fanout list repeats the consumer, and an XOR fed by a stem
// that is also a primary output.
func dupPinCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("dup")
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	a := b.NandGate("a", x, y)
	d := b.AndGate("d", a, a, z)
	e := b.XorGate("e", a, d)
	f := b.OrGate("f", d, y)
	b.MarkOutput(a)
	b.MarkOutput(e)
	b.MarkOutput(f)
	return b.MustBuild()
}

// sameBits reports whether two float64 values have the same bit
// pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestOverlayMatchesRebuiltCircuit is the overlay's differential test:
// for every signal and both control kinds, its measures must equal bit
// for bit those of NewCOP on the circuit InsertTestPoints builds. The
// overlay is reused across the whole sweep, so every restart position of
// the forward pass is exercised.
func TestOverlayMatchesRebuiltCircuit(t *testing.T) {
	circuits := []*netlist.Circuit{
		gen.C17(),
		dupPinCircuit(),
		gen.RandomDAG(3, 12, 90, gen.DAGOptions{}),
		gen.RandomDAG(8, 10, 60, gen.DAGOptions{MaxFanin: 4, XorPct: 0.3}),
		gen.RPResistant(2, 3, 8, 30),
		gen.Multiplier(3),
		gen.RandomTree(5, 30, gen.TreeOptions{}),
	}
	for _, c := range circuits {
		ni := c.NumInputs()
		// Covers every primary input and the overlay's test input.
		skewed := make([]float64, ni+1)
		for i := range skewed {
			skewed[i] = 0.2 + 0.6*float64((i*3)%7)/6
		}
		for _, opts := range []struct {
			name string
			opts COPOptions
		}{
			{"default", COPOptions{}},
			{"or", COPOptions{Combine: CombineOr}},
			{"inputprob", COPOptions{InputProb: skewed}},
			{"inputprob+or", COPOptions{InputProb: skewed, Combine: CombineOr}},
		} {
			t.Run(fmt.Sprintf("%s/%s", c.Name(), opts.name), func(t *testing.T) {
				checkOverlay(t, c, opts.opts)
			})
		}
	}
}

func checkOverlay(t *testing.T, c *netlist.Circuit, opts COPOptions) {
	t.Helper()
	base := NewCOP(c, opts)
	ov := NewOverlay(c, opts)
	for id := 0; id < c.NumGates(); id++ {
		if !sameBits(ov.Controllability(id), base.Controllability(id)) || !sameBits(ov.Observability(id), base.Observability(id)) {
			t.Fatalf("overlay without a control point differs from NewCOP at gate %d", id)
		}
	}
	faults := fault.Universe(c)
	for _, f := range faults {
		if !sameBits(ov.DetectProb(f), base.DetectProb(f)) {
			t.Fatalf("overlay without a control point differs from NewCOP on fault %v", f)
		}
	}
	// Visit signals back to front and then front to back, so the forward
	// pass restarts both before and after the previous signal.
	var sigs []int
	for id := c.NumGates() - 1; id >= 0; id-- {
		sigs = append(sigs, id)
	}
	for id := 0; id < c.NumGates(); id++ {
		sigs = append(sigs, id)
	}
	for _, s := range sigs {
		for _, kind := range []netlist.TestPointKind{netlist.Control0, netlist.Control1} {
			mod, err := c.InsertTestPoints([]netlist.TestPoint{{Signal: s, Kind: kind}})
			if err != nil {
				t.Fatal(err)
			}
			want := NewCOP(mod, opts)
			ov.SetControlPoint(s, kind)
			for id := 0; id < mod.NumGates(); id++ {
				if !sameBits(ov.Controllability(id), want.Controllability(id)) {
					t.Fatalf("%s at %d: controllability of gate %d = %v, rebuilt %v",
						kind, s, id, ov.Controllability(id), want.Controllability(id))
				}
				if !sameBits(ov.Observability(id), want.Observability(id)) {
					t.Fatalf("%s at %d: observability of gate %d = %v, rebuilt %v",
						kind, s, id, ov.Observability(id), want.Observability(id))
				}
				for pin := range mod.Fanin(id) {
					if !sameBits(ov.BranchObservability(id, pin), want.BranchObservability(id, pin)) {
						t.Fatalf("%s at %d: branch observability of gate %d pin %d = %v, rebuilt %v",
							kind, s, id, pin, ov.BranchObservability(id, pin), want.BranchObservability(id, pin))
					}
				}
			}
			for _, universe := range [][]fault.Fault{faults, fault.Universe(mod)} {
				for _, f := range universe {
					if got, w := ov.DetectProb(f), want.DetectProb(f); !sameBits(got, w) {
						t.Fatalf("%s at %d: DetectProb(%v) = %v, rebuilt %v", kind, s, f, got, w)
					}
				}
			}
		}
	}
}

// TestOverlayRejectsOtherKinds pins the overlay to control points.
func TestOverlayRejectsOtherKinds(t *testing.T) {
	ov := NewOverlay(gen.C17(), COPOptions{})
	defer func() {
		if recover() == nil {
			t.Error("SetControlPoint accepted an observation point")
		}
	}()
	ov.SetControlPoint(5, netlist.Observe)
}
