package fault

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

func TestUniverseCounts(t *testing.T) {
	// c17: 11 signals -> 22 stem faults. Fanout stems: input 3, gates 11
	// and 16 (2 branches each) -> 6 branches -> 12 branch faults. Total 34.
	c := gen.C17()
	u := Universe(c)
	if len(u) != 34 {
		t.Errorf("universe size = %d, want 34", len(u))
	}
	stems, branches := 0, 0
	for _, f := range u {
		if f.IsStem() {
			stems++
		} else {
			branches++
		}
	}
	if stems != 22 || branches != 12 {
		t.Errorf("stems=%d branches=%d, want 22/12", stems, branches)
	}
}

func TestUniverseDeterministic(t *testing.T) {
	c := gen.RandomDAG(1, 8, 50, gen.DAGOptions{})
	a := Universe(c)
	b := Universe(c)
	if len(a) != len(b) {
		t.Fatal("universe size differs across calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCollapseC17(t *testing.T) {
	// The standard collapsed fault count for c17 is 22.
	c := gen.C17()
	collapsed := CollapsedUniverse(c)
	if len(collapsed) != 22 {
		t.Errorf("collapsed c17 = %d faults, want 22", len(collapsed))
	}
}

func TestCollapseInverterChain(t *testing.T) {
	// a -> NOT -> NOT -> NOT -> out: all faults collapse to 2 classes.
	b := netlist.NewBuilder("invchain")
	a := b.Input("a")
	n1 := b.NotGate("n1", a)
	n2 := b.NotGate("n2", n1)
	n3 := b.NotGate("n3", n2)
	b.MarkOutput(n3)
	c := b.MustBuild()
	collapsed := CollapsedUniverse(c)
	if len(collapsed) != 2 {
		t.Errorf("inverter chain collapsed to %d faults, want 2: %v", len(collapsed), collapsed)
	}
	// Representatives must sit at the input (level 0).
	for _, f := range collapsed {
		if c.Level(f.Gate) != 0 {
			t.Errorf("representative %v not at level 0", f)
		}
	}
}

func TestCollapseAndGate(t *testing.T) {
	// 2-input AND: universe = 6 faults (a0,a1,b0,b1,g0,g1); a0 ≡ b0 ≡ g0,
	// so collapsed = 4.
	b := netlist.NewBuilder("and2")
	a := b.Input("a")
	x := b.Input("b")
	g := b.AndGate("g", a, x)
	b.MarkOutput(g)
	c := b.MustBuild()
	collapsed := CollapsedUniverse(c)
	if len(collapsed) != 4 {
		t.Errorf("AND2 collapsed to %d faults, want 4: %v", len(collapsed), collapsed)
	}
}

func TestCollapseXorKeepsAll(t *testing.T) {
	// XOR has no structural equivalences: 6 faults stay 6.
	b := netlist.NewBuilder("xor2")
	a := b.Input("a")
	x := b.Input("b")
	g := b.XorGate("g", a, x)
	b.MarkOutput(g)
	c := b.MustBuild()
	collapsed := CollapsedUniverse(c)
	if len(collapsed) != 6 {
		t.Errorf("XOR2 collapsed to %d faults, want 6", len(collapsed))
	}
}

func TestBranchFaultsNotCollapsedAcrossStem(t *testing.T) {
	// A fanout stem's branches are distinct fault sites: stem s feeds two
	// AND gates; branch s->g1 s-a-0 is NOT equivalent to branch s->g2
	// s-a-0, though each is equivalent to its gate's output s-a-0.
	b := netlist.NewBuilder("fan")
	a := b.Input("a")
	x := b.Input("b")
	y := b.Input("c")
	g1 := b.AndGate("g1", a, x)
	g2 := b.AndGate("g2", a, y)
	b.MarkOutput(g1)
	b.MarkOutput(g2)
	c := b.MustBuild()
	classes := EquivalenceClasses(c, Universe(c))
	// Find the classes containing g1 out s-a-0 and g2 out s-a-0.
	id1, _ := c.GateByName("g1")
	id2, _ := c.GateByName("g2")
	var class1, class2 []Fault
	for _, cl := range classes {
		for _, f := range cl {
			if f == (Fault{Gate: id1, Pin: -1, Stuck: false}) {
				class1 = cl
			}
			if f == (Fault{Gate: id2, Pin: -1, Stuck: false}) {
				class2 = cl
			}
		}
	}
	if class1 == nil || class2 == nil {
		t.Fatal("classes not found")
	}
	if &class1[0] == &class2[0] {
		t.Error("branch faults of different consumers collapsed together")
	}
	// Each class: {branch a->gi s-a-0, input xi s-a-0, out gi s-a-0} = 3.
	if len(class1) != 3 || len(class2) != 3 {
		t.Errorf("class sizes %d/%d, want 3/3", len(class1), len(class2))
	}
}

func TestCollapseReductionRatio(t *testing.T) {
	// Equivalence collapsing conventionally removes 30-60% of faults on
	// random logic.
	c := gen.RandomDAG(17, 16, 300, gen.DAGOptions{})
	u := Universe(c)
	col := Collapse(c, u)
	ratio := float64(len(col)) / float64(len(u))
	if ratio >= 1.0 {
		t.Errorf("collapse removed nothing (%d -> %d)", len(u), len(col))
	}
	if ratio < 0.2 {
		t.Errorf("collapse ratio %.2f suspiciously aggressive", ratio)
	}
}

func TestEquivalenceClassesPartition(t *testing.T) {
	c := gen.C17()
	u := Universe(c)
	classes := EquivalenceClasses(c, u)
	total := 0
	seen := make(map[Fault]bool)
	for _, cl := range classes {
		total += len(cl)
		for _, f := range cl {
			if seen[f] {
				t.Errorf("fault %v appears in two classes", f)
			}
			seen[f] = true
		}
	}
	if total != len(u) {
		t.Errorf("classes cover %d faults, universe has %d", total, len(u))
	}
	if len(classes) != len(Collapse(c, u)) {
		t.Errorf("class count %d != collapsed count %d", len(classes), len(Collapse(c, u)))
	}
}

func TestFaultStringAndName(t *testing.T) {
	c := gen.C17()
	g10, _ := c.GateByName("10")
	f := Fault{Gate: g10, Pin: -1, Stuck: true}
	if f.String() == "" || f.Name(c) != "10 s-a-1" {
		t.Errorf("Name = %q", f.Name(c))
	}
	g16, _ := c.GateByName("16")
	bf := Fault{Gate: g16, Pin: 1, Stuck: false}
	if bf.Name(c) != "11->16 s-a-0" {
		t.Errorf("branch Name = %q", bf.Name(c))
	}
	if bf.IsStem() {
		t.Error("branch fault claims to be stem")
	}
}

// TestCollapseDeterministic pins the ordering contract on the two
// collapse paths: repeated runs over the same circuit agree
// element-for-element. The serve layer caches responses by content
// hash, so any order wobble here would show up as spurious cache
// misses and byte-diverging replies.
func TestCollapseDeterministic(t *testing.T) {
	for _, c := range []*netlist.Circuit{
		gen.C17(),
		gen.RandomDAG(7, 12, 120, gen.DAGOptions{}),
		gen.RPResistant(3, 3, 10, 40),
	} {
		u := Universe(c)
		first := Collapse(c, u)
		for run := 0; run < 5; run++ {
			again := Collapse(c, u)
			if len(again) != len(first) {
				t.Fatalf("%s: collapsed size changed between runs: %d vs %d", c.Name(), len(again), len(first))
			}
			for i := range first {
				if again[i] != first[i] {
					t.Fatalf("%s: element %d differs between runs: %v vs %v", c.Name(), i, again[i], first[i])
				}
			}
		}

		classes := EquivalenceClasses(c, u)
		for run := 0; run < 5; run++ {
			again := EquivalenceClasses(c, u)
			if len(again) != len(classes) {
				t.Fatalf("%s: class count changed between runs", c.Name())
			}
			for i := range classes {
				if len(again[i]) != len(classes[i]) || again[i][0] != classes[i][0] {
					t.Fatalf("%s: class %d differs between runs", c.Name(), i)
				}
			}
		}
	}
}

// The map-based union-find collapsing that the dense fault index
// replaced, kept as the reference the tests below compare against.

type refUnionFind struct{ parent map[Fault]Fault }

func (u *refUnionFind) find(f Fault) Fault {
	p, ok := u.parent[f]
	if !ok {
		return f
	}
	root := u.find(p)
	u.parent[f] = root
	return root
}

func (u *refUnionFind) union(a, b Fault) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

func refLess(a, b Fault) bool {
	if a.Gate != b.Gate {
		return a.Gate < b.Gate
	}
	if a.Pin != b.Pin {
		return a.Pin < b.Pin
	}
	return !a.Stuck && b.Stuck
}

func refSort(faults []Fault) {
	sort.Slice(faults, func(i, j int) bool { return refLess(faults[i], faults[j]) })
}

func refUniverse(c *netlist.Circuit) []Fault {
	var faults []Fault
	for id := 0; id < c.NumGates(); id++ {
		faults = append(faults, Fault{Gate: id, Pin: -1, Stuck: false}, Fault{Gate: id, Pin: -1, Stuck: true})
	}
	for id := 0; id < c.NumGates(); id++ {
		for pin, f := range c.Fanin(id) {
			if c.FanoutCount(f) > 1 {
				faults = append(faults, Fault{Gate: id, Pin: pin, Stuck: false}, Fault{Gate: id, Pin: pin, Stuck: true})
			}
		}
	}
	refSort(faults)
	return faults
}

func refInputFault(c *netlist.Circuit, id, pin int, v bool) Fault {
	driver := c.Fanin(id)[pin]
	if c.FanoutCount(driver) > 1 {
		return Fault{Gate: id, Pin: pin, Stuck: v}
	}
	return Fault{Gate: driver, Pin: -1, Stuck: v}
}

func refBuildUnions(c *netlist.Circuit) *refUnionFind {
	uf := &refUnionFind{parent: make(map[Fault]Fault)}
	for id := 0; id < c.NumGates(); id++ {
		g := c.Gate(id)
		out0 := Fault{Gate: id, Pin: -1, Stuck: false}
		out1 := Fault{Gate: id, Pin: -1, Stuck: true}
		switch g.Type {
		case netlist.Buf:
			uf.union(refInputFault(c, id, 0, false), out0)
			uf.union(refInputFault(c, id, 0, true), out1)
		case netlist.Not:
			uf.union(refInputFault(c, id, 0, false), out1)
			uf.union(refInputFault(c, id, 0, true), out0)
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			v := g.Type == netlist.Or || g.Type == netlist.Nor
			out := out0
			if g.Type == netlist.Nand || g.Type == netlist.Or {
				out = out1
			}
			for pin := range g.Fanin {
				uf.union(refInputFault(c, id, pin, v), out)
			}
		}
	}
	return uf
}

func refCollapse(c *netlist.Circuit, faults []Fault) []Fault {
	uf := refBuildUnions(c)
	classBest := make(map[Fault]Fault)
	better := func(a, b Fault) bool {
		if la, lb := c.Level(a.Gate), c.Level(b.Gate); la != lb {
			return la < lb
		}
		return refLess(a, b)
	}
	for _, f := range faults {
		root := uf.find(f)
		if cur, ok := classBest[root]; !ok || better(f, cur) {
			classBest[root] = f
		}
	}
	var out []Fault
	for _, f := range classBest {
		out = append(out, f)
	}
	refSort(out)
	return out
}

func refEquivalenceClasses(c *netlist.Circuit, faults []Fault) [][]Fault {
	uf := refBuildUnions(c)
	groups := make(map[Fault][]Fault)
	for _, f := range faults {
		root := uf.find(f)
		groups[root] = append(groups[root], f)
	}
	var out [][]Fault
	for _, g := range groups {
		refSort(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i][0], out[j][0]) })
	return out
}

func refCollapseExcluding(c *netlist.Circuit, redundant []Fault) ([]Fault, []dominanceDrop) {
	uf := refBuildUnions(c)
	collapsed := refCollapse(c, refUniverse(c))
	redRoot := make(map[Fault]bool)
	for _, f := range redundant {
		redRoot[uf.find(f)] = true
	}
	repOf := make(map[Fault]Fault)
	for _, rep := range collapsed {
		repOf[uf.find(rep)] = rep
	}
	dropped := make(map[Fault]bool)
	var drops []dominanceDrop
	for id := 0; id < c.NumGates(); id++ {
		g := c.Gate(id)
		cv, ok := g.Type.ControllingValue()
		if !ok {
			continue
		}
		controlled := cv
		if g.Type.Inverting() {
			controlled = !cv
		}
		dRep, ok := repOf[uf.find(Fault{Gate: id, Pin: -1, Stuck: !controlled})]
		if !ok || dropped[dRep] || redRoot[uf.find(dRep)] {
			continue
		}
		for pin := range g.Fanin {
			wRep, ok := repOf[uf.find(refInputFault(c, id, pin, !cv))]
			if ok && wRep != dRep && !redRoot[uf.find(wRep)] {
				dropped[dRep] = true
				drops = append(drops, dominanceDrop{Dropped: dRep, Witness: wRep})
				break
			}
		}
	}
	var kept []Fault
	for _, rep := range collapsed {
		if !dropped[rep] && !redRoot[uf.find(rep)] {
			kept = append(kept, rep)
		}
	}
	return kept, drops
}

// referenceCircuits spans the generator families.
func referenceCircuits() []*netlist.Circuit {
	out := []*netlist.Circuit{
		gen.C17(),
		gen.AndCone(6),
		gen.ParityTree(8),
		gen.RippleCarryAdder(4),
		gen.Comparator(4),
		gen.Decoder(3),
		gen.Multiplier(5),
		gen.ALUSlice(8),
		gen.BarrelShifter(8),
		gen.RPResistant(2, 3, 12, 80),
		gen.RandomTree(3, 200, gen.TreeOptions{}),
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out,
			gen.RandomDAG(seed, 4, 150, gen.DAGOptions{}),
			gen.RandomDAG(seed, 16, 300, gen.DAGOptions{}))
	}
	return out
}

// TestCollapseMatchesReference: the dense-index collapsing returns
// exactly what the map-based union-find returned, for the universe, a
// shuffled sample of it with repeats, and redundant sets of several
// densities.
func TestCollapseMatchesReference(t *testing.T) {
	for _, c := range referenceCircuits() {
		t.Run(c.Name(), func(t *testing.T) {
			u := Universe(c)
			if want := refUniverse(c); !slices.Equal(u, want) {
				t.Fatalf("Universe differs from the reference:\n got  %v\n want %v", u, want)
			}
			rng := rand.New(rand.NewSource(int64(len(u))))
			var sample []Fault
			for _, i := range rng.Perm(len(u)) {
				if i%3 != 0 {
					sample = append(sample, u[i])
				}
				if i%11 == 0 {
					sample = append(sample, u[i])
				}
			}
			for name, list := range map[string][]Fault{"universe": u, "sample": sample} {
				if got, want := Collapse(c, list), refCollapse(c, list); !slices.Equal(got, want) {
					t.Errorf("%s: Collapse = %v, reference %v", name, got, want)
				}
				got, want := EquivalenceClasses(c, list), refEquivalenceClasses(c, list)
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Errorf("%s: EquivalenceClasses = %v, reference %v", name, got, want)
				}
			}
			if got, want := CollapseWithDominance(c), func() []Fault { k, _ := refCollapseExcluding(c, nil); return k }(); !slices.Equal(got, want) {
				t.Errorf("CollapseWithDominance = %v, reference %v", got, want)
			}
			for _, every := range []int{2, 7, 40} {
				var red []Fault
				for i, f := range u {
					if rng.Intn(every) == 0 || i%(every+1) == 0 {
						red = append(red, f)
					}
				}
				kept, drops := collapseExcluding(c, red)
				wantKept, wantDrops := refCollapseExcluding(c, red)
				if !slices.Equal(kept, wantKept) || !slices.Equal(drops, wantDrops) {
					t.Errorf("CollapseExcluding with %d redundant: kept %v drops %v, reference kept %v drops %v",
						len(red), kept, drops, wantKept, wantDrops)
				}
				if got := CollapseExcluding(c, red); !slices.Equal(got, wantKept) {
					t.Errorf("CollapseExcluding with %d redundant = %v, reference %v", len(red), got, wantKept)
				}
			}
		})
	}
}
