package testability

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// referenceBackward is the observability pass as it was before the
// branch lists: for every signal it scans the fanin of each consumer in
// Fanout order, duplicates included, for the pins that read the signal
// through the overlay's substitution. It fills obs and branchObs, sized
// like co's, from co's signal probabilities.
func referenceBackward(co *COP, obs, branchObs []float64) {
	c := co.c
	stem := func(id int, consumers []int, ob float64) float64 {
		for _, consumer := range consumers {
			_, fanin, from, to := co.view(consumer)
			for pin, f := range fanin {
				if f == from {
					f = to
				}
				if f != id {
					continue
				}
				bo := co.PinObservability(consumer, pin) * obs[consumer]
				branchObs[int(co.branchOff[consumer])+pin] = bo
				switch co.combine {
				case CombineOr:
					ob = 1 - (1-ob)*(1-bo)
				default:
					if bo > ob {
						ob = bo
					}
				}
			}
		}
		return ob
	}
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var ob float64
		if c.IsOutput(id) {
			ob = 1
		}
		if id != co.cp.sig {
			obs[id] = stem(id, c.Fanout(id), ob)
			continue
		}
		gate := co.n + 1
		self := []int{gate}
		obs[gate] = stem(gate, c.Fanout(id), 0)
		obs[co.n] = stem(co.n, self, 0)
		obs[id] = stem(id, self, ob)
	}
}

// checkBackward compares co's measures with the reference pass's, bit
// for bit.
func checkBackward(t *testing.T, co *COP, what string) {
	t.Helper()
	obs := make([]float64, len(co.obs))
	branchObs := make([]float64, len(co.branchObs))
	referenceBackward(co, obs, branchObs)
	for g := range obs {
		if !sameBits(obs[g], co.obs[g]) {
			t.Fatalf("%s: observability of gate %d = %v, reference %v", what, g, co.obs[g], obs[g])
		}
	}
	for i := range branchObs {
		if !sameBits(branchObs[i], co.branchObs[i]) {
			t.Fatalf("%s: branch observability %d = %v, reference %v", what, i, co.branchObs[i], branchObs[i])
		}
	}
}

// TestBranchListsMatchFaninScan holds the backward pass, which walks
// each signal's precomputed branch list, to the scan of every
// consumer's fanin it replaced: the same observabilities bit for bit,
// under both stem rules, with and without an overlaid control point.
// dupPinCircuit reads one signal on two pins of one gate, groupCircuit
// reads signals on up to three pins of a gate, apart and interleaved
// with others, and wideRead on 60, where CombineOr sees every repeated
// visit.
func TestBranchListsMatchFaninScan(t *testing.T) {
	circuits := []*netlist.Circuit{
		gen.C17(),
		dupPinCircuit(),
		groupCircuit(),
		wideRead(60),
		gen.RandomDAG(3, 12, 90, gen.DAGOptions{}),
		gen.RandomDAG(8, 10, 60, gen.DAGOptions{MaxFanin: 4, XorPct: 0.3}),
		gen.RPResistant(2, 3, 8, 30),
		gen.Multiplier(3),
	}
	for _, c := range circuits {
		for _, combine := range []StemCombine{CombineMax, CombineOr} {
			opts := COPOptions{Combine: combine}
			t.Run(fmt.Sprintf("%s/%d", c.Name(), combine), func(t *testing.T) {
				checkBackward(t, NewCOP(c, opts), "NewCOP")
				ov := NewOverlay(c, opts)
				checkBackward(t, &ov.COP, "overlay without a point")
				for s := 0; s < c.NumGates(); s++ {
					for _, kind := range []netlist.TestPointKind{netlist.Control0, netlist.Control1} {
						ov.SetControlPoint(s, kind)
						checkBackward(t, &ov.COP, fmt.Sprintf("%s at %d", kind, s))
					}
				}
			})
		}
	}
}

// groupCircuit reads one signal on several pins of a gate in every
// arrangement the branch lists group: pins apart, pins interleaved with
// another repeated signal, and a consumer that reads two signals twice
// each next to consumers that read them once.
func groupCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("group")
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	a := b.NandGate("a", x, y)
	d := b.AndGate("d", a, z, a, a, y, z)
	e := b.OrGate("e", d, a, d)
	f := b.NorGate("f", z, e, z, e)
	g := b.XorGate("g", a, f)
	b.MarkOutput(d)
	b.MarkOutput(f)
	b.MarkOutput(g)
	return b.MustBuild()
}

// wideRead is a circuit of one AND gate that reads one input on every
// one of its k pins.
func wideRead(k int) *netlist.Circuit {
	b := netlist.NewBuilder("wide")
	a := b.Input("a")
	in := make([]int, k)
	for i := range in {
		in[i] = a
	}
	b.MarkOutput(b.AndGate("z", in...))
	return b.MustBuild()
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRepeatedPinsTakeLinearMemory: a gate that reads one signal on k
// pins lists each pin once, so its analysis allocates in proportion to
// k even though the backward pass visits its pins k times over. Listing
// every visit would take 100 MB at 5,000 pins, and its count would
// overflow at 50,000.
func TestRepeatedPinsTakeLinearMemory(t *testing.T) {
	c := wideRead(5000)
	if n := allocated(func() { NewCOP(c, COPOptions{Combine: CombineOr}) }); n > 1<<20 {
		t.Errorf("NewCOP of a gate reading one signal on 5,000 pins allocated %d bytes", n)
	}
	c = wideRead(50000)
	var sh *shape
	if n := allocated(func() { sh = newShape(c, 0) }); n > 1<<20 {
		t.Errorf("newShape of a gate reading one signal on 50,000 pins allocated %d bytes", n)
	}
	list := sh.branches[sh.branchStart[0]:sh.branchStart[1]]
	if len(list) != 50000 || list[len(list)-2] >= 0 || list[len(list)-1] != 49999 {
		t.Errorf("the input's branch list has %d entries ending %v, want 50,000 in one group", len(list), list[max(len(list)-2, 0):])
	}
}

// TestOverlayCloneIsIndependent: a clone starts in its original's
// state, and scoring points on one leaves the other's measures alone.
func TestOverlayCloneIsIndependent(t *testing.T) {
	c := gen.RandomDAG(3, 12, 90, gen.DAGOptions{})
	ov := NewOverlay(c, COPOptions{})
	cl := ov.Clone(nil)
	base := NewCOP(c, COPOptions{})
	cl.SetControlPoint(40, netlist.Control1)
	for id := 0; id < c.NumGates(); id++ {
		if !sameBits(ov.Controllability(id), base.Controllability(id)) || !sameBits(ov.Observability(id), base.Observability(id)) {
			t.Fatalf("scoring on the clone changed the original at gate %d", id)
		}
	}
	ov.SetControlPoint(12, netlist.Control0)
	want := ov.Clone(nil)
	want.SetControlPoint(40, netlist.Control1)
	for id := 0; id < c.NumGates()+2; id++ {
		if !sameBits(cl.Controllability(id), want.Controllability(id)) || !sameBits(cl.Observability(id), want.Observability(id)) {
			t.Fatalf("the clone's analysis at gate %d depends on the original's later points", id)
		}
	}
}
