// Package fault defines the single stuck-at fault model: the fault
// universe over stems and fanout branches, and structural equivalence
// collapsing.
//
// Fault sites follow the classic convention: every signal (gate output,
// the "stem") carries stuck-at-0 and stuck-at-1 faults; additionally,
// every fanout branch of a stem with more than one consumer carries its
// own pair, because a branch fault affects only one consumer and is not
// equivalent to the stem fault.
package fault

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/netlist"
)

// Fault identifies one single stuck-at fault.
//
// Pin == -1 denotes a stem fault on the output of Gate. Pin >= 0 denotes
// a branch fault on input pin Pin of Gate (the branch from that pin's
// driver into Gate).
type Fault struct {
	Gate  int
	Pin   int
	Stuck bool // stuck-at value: false = s-a-0, true = s-a-1
}

// IsStem reports whether the fault sits on a gate output stem.
func (f Fault) IsStem() bool { return f.Pin < 0 }

// String renders the fault in the conventional "signal s-a-v" form.
func (f Fault) String() string {
	sa := "s-a-0"
	if f.Stuck {
		sa = "s-a-1"
	}
	if f.IsStem() {
		return fmt.Sprintf("g%d %s", f.Gate, sa)
	}
	return fmt.Sprintf("g%d.in%d %s", f.Gate, f.Pin, sa)
}

// Name renders the fault using circuit signal names.
func (f Fault) Name(c *netlist.Circuit) string {
	sa := "s-a-0"
	if f.Stuck {
		sa = "s-a-1"
	}
	if f.IsStem() {
		return fmt.Sprintf("%s %s", c.GateName(f.Gate), sa)
	}
	driver := c.Fanin(f.Gate)[f.Pin]
	return fmt.Sprintf("%s->%s %s", c.GateName(driver), c.GateName(f.Gate), sa)
}

// Universe enumerates the full uncollapsed fault list of the circuit:
// stem faults on every signal, branch faults on every input pin whose
// driver has fanout greater than one. Faults are returned in a
// deterministic order (by gate, then pin, then stuck value).
func Universe(c *netlist.Circuit) []Fault {
	n := 2 * c.NumGates()
	for id := 0; id < c.NumGates(); id++ {
		for _, d := range c.Fanin(id) {
			if c.FanoutCount(d) > 1 {
				n += 2
			}
		}
	}
	faults := make([]Fault, 0, n)
	for id := 0; id < c.NumGates(); id++ {
		faults = append(faults,
			Fault{Gate: id, Pin: -1, Stuck: false},
			Fault{Gate: id, Pin: -1, Stuck: true})
		for pin, d := range c.Fanin(id) {
			if c.FanoutCount(d) > 1 {
				faults = append(faults,
					Fault{Gate: id, Pin: pin, Stuck: false},
					Fault{Gate: id, Pin: pin, Stuck: true})
			}
		}
	}
	return faults
}

// compareFaults orders faults by gate, then pin (the stem first), then
// stuck value: the order of Universe.
func compareFaults(a, b Fault) int {
	if c := cmp.Compare(a.Gate, b.Gate); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pin, b.Pin); c != 0 {
		return c
	}
	switch {
	case a.Stuck == b.Stuck:
		return 0
	case b.Stuck:
		return -1
	}
	return 1
}

// sortFaults sorts faults into Universe order unless they already are.
func sortFaults(faults []Fault) {
	if !slices.IsSortedFunc(faults, compareFaults) {
		slices.SortFunc(faults, compareFaults)
	}
}

// faultIndex numbers every fault site of a circuit densely and in
// Universe order: gate id owns the indices from first[id], its stem pair
// and then a pair per input pin, stuck-at-0 first. Pins whose driver has
// a single consumer get a pair too, so any fault on an existing gate and
// pin has an index.
type faultIndex struct {
	first []int32
	size  int
}

func newFaultIndex(c *netlist.Circuit) faultIndex {
	first := make([]int32, c.NumGates())
	next := 0
	for id := range first {
		first[id] = int32(next)
		next += 2 + 2*len(c.Fanin(id))
	}
	return faultIndex{first: first, size: next}
}

func (x faultIndex) of(f Fault) int32 {
	i := x.first[f.Gate] + int32(2*(f.Pin+1))
	if f.Stuck {
		i++
	}
	return i
}

// inputFault returns the fault of input pin pin of gate id stuck at v:
// the branch fault when the driver has fanout greater than one,
// otherwise the driver's stem fault (a single-consumer branch is the
// same line as its stem).
func inputFault(c *netlist.Circuit, id, pin int, v bool) Fault {
	driver := c.Fanin(id)[pin]
	if c.FanoutCount(driver) > 1 {
		return Fault{Gate: id, Pin: pin, Stuck: v}
	}
	return Fault{Gate: driver, Pin: -1, Stuck: v}
}

// buildUnions applies the local structural equivalence rules transitively
// (an input fault is the one inputFault names):
//
//   - BUF: input s-a-v ≡ output s-a-v
//   - NOT: input s-a-v ≡ output s-a-(1-v)
//   - AND: every input s-a-0 ≡ output s-a-0 (NAND: ≡ output s-a-1)
//   - OR: every input s-a-1 ≡ output s-a-1 (NOR: ≡ output s-a-0)
func buildUnions(c *netlist.Circuit, x faultIndex) unionFind {
	uf := newUnionFind(x.size)
	in := func(id, pin int, v bool) int32 { return x.of(inputFault(c, id, pin, v)) }
	for id := 0; id < c.NumGates(); id++ {
		g := c.Gate(id)
		out0 := x.of(Fault{Gate: id, Pin: -1, Stuck: false})
		out1 := out0 + 1
		switch g.Type {
		case netlist.Buf:
			uf.union(in(id, 0, false), out0)
			uf.union(in(id, 0, true), out1)
		case netlist.Not:
			uf.union(in(id, 0, false), out1)
			uf.union(in(id, 0, true), out0)
		case netlist.And:
			for pin := range g.Fanin {
				uf.union(in(id, pin, false), out0)
			}
		case netlist.Nand:
			for pin := range g.Fanin {
				uf.union(in(id, pin, false), out1)
			}
		case netlist.Or:
			for pin := range g.Fanin {
				uf.union(in(id, pin, true), out1)
			}
		case netlist.Nor:
			for pin := range g.Fanin {
				uf.union(in(id, pin, true), out0)
			}
		}
	}
	return uf
}

// Collapse reduces the fault list by structural equivalence (the rules
// documented on buildUnions). One representative per class is kept: the
// topologically earliest site (ties broken deterministically), matching
// the usual convention of pushing representatives toward primary inputs.
// Every fault must name an existing gate and pin of c.
func Collapse(c *netlist.Circuit, faults []Fault) []Fault {
	x := newFaultIndex(c)
	return collapse(c, x, buildUnions(c, x), faults)
}

// collapse is Collapse over a prepared index and union-find. A class's
// best member is the least (level, index) pair among its listed faults;
// index order is Universe order, so this is the earliest level with ties
// broken by gate, pin and stuck value.
func collapse(c *netlist.Circuit, x faultIndex, uf unionFind, faults []Fault) []Fault {
	key := func(f Fault, i int32) int64 { return siteKey(c.Level(f.Gate), i) }
	best := make([]int64, x.size) // per class root; 0 = no member listed yet
	classes := 0
	for _, f := range faults {
		i := x.of(f)
		r := uf.find(i)
		if k := key(f, i); best[r] == 0 || k < best[r] {
			if best[r] == 0 {
				classes++
			}
			best[r] = k
		}
	}
	out := make([]Fault, 0, classes)
	for _, f := range faults {
		i := x.of(f)
		if r := uf.find(i); best[r] == key(f, i) {
			out = append(out, f)
			best[r] = 0 // a repeated listing is emitted once
		}
	}
	sortFaults(out)
	return out
}

// siteKey orders the fault with index i on a gate of the given level
// as collapse ranks class members: by level, then index. It is never 0.
func siteKey(level int, i int32) int64 { return (int64(level)<<32 | int64(i)) + 1 }

// CollapsedUniverse returns Collapse(c, Universe(c)). It walks the fault
// index's sites in Universe order instead of listing the universe, so
// its result comes out sorted.
func CollapsedUniverse(c *netlist.Circuit) []Fault {
	x := newFaultIndex(c)
	uf := buildUnions(c, x)
	best := make([]int64, x.size) // per class root; 0 = no site seen yet
	classes := 0
	universeSites(c, x, func(_ Fault, i int32, key int64) {
		if r := uf.find(i); best[r] == 0 || key < best[r] {
			if best[r] == 0 {
				classes++
			}
			best[r] = key
		}
	})
	out := make([]Fault, 0, classes)
	universeSites(c, x, func(f Fault, i int32, key int64) {
		if best[uf.find(i)] == key {
			out = append(out, f)
		}
	})
	return out
}

// universeSites calls visit for every fault of Universe(c), in its
// order, with the fault's index and key. The key carries the gate's
// level, read once per gate.
func universeSites(c *netlist.Circuit, x faultIndex, visit func(f Fault, i int32, key int64)) {
	for id := 0; id < c.NumGates(); id++ {
		level := c.Level(id)
		i := x.first[id]
		visit(Fault{Gate: id, Pin: -1, Stuck: false}, i, siteKey(level, i))
		visit(Fault{Gate: id, Pin: -1, Stuck: true}, i+1, siteKey(level, i+1))
		for pin, d := range c.Fanin(id) {
			if c.FanoutCount(d) > 1 {
				i := x.first[id] + int32(2*(pin+1))
				visit(Fault{Gate: id, Pin: pin, Stuck: false}, i, siteKey(level, i))
				visit(Fault{Gate: id, Pin: pin, Stuck: true}, i+1, siteKey(level, i+1))
			}
		}
	}
}

// EquivalenceClasses returns the partition of the given fault list into
// structural equivalence classes, each sorted deterministically, ordered
// by their first member. Every fault must name an existing gate and pin
// of c.
func EquivalenceClasses(c *netlist.Circuit, faults []Fault) [][]Fault {
	x := newFaultIndex(c)
	uf := buildUnions(c, x)
	sorted := faults
	if !slices.IsSortedFunc(faults, compareFaults) {
		sorted = slices.Clone(faults)
		slices.SortFunc(sorted, compareFaults)
	}
	// Classes are numbered in order of their first member, and one flat
	// array holds them all, each class a contiguous run of it.
	class := make([]int32, x.size) // per root: class number + 1
	var size []int
	for _, f := range sorted {
		r := uf.find(x.of(f))
		if class[r] == 0 {
			size = append(size, 0)
			class[r] = int32(len(size))
		}
		size[class[r]-1]++
	}
	end := make([]int, len(size))
	off := 0
	for k, n := range size {
		end[k] = off
		off += n
	}
	flat := make([]Fault, len(sorted))
	for _, f := range sorted {
		k := class[uf.find(x.of(f))] - 1
		flat[end[k]] = f
		end[k]++
	}
	out := make([][]Fault, len(size))
	for k := range out {
		out[k] = flat[end[k]-size[k] : end[k] : end[k]]
	}
	return out
}

// unionFind is a disjoint-set over the indices of a faultIndex.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) unionFind {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return unionFind{parent: parent}
}

func (u unionFind) find(i int32) int32 {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

func (u unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}
