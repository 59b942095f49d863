package fault

import "repro/internal/netlist"

// dominanceDrop records one dominance-based removal: every test that
// detects Witness also detects Dropped, so Dropped need not be targeted.
type dominanceDrop struct {
	Dropped Fault // the class representative removed
	Witness Fault // the class representative whose tests imply detection
}

// CollapseWithDominance reduces the fault universe by structural
// equivalence (see Collapse) and then by gate-level dominance: for a gate
// with a controlling value, the output fault at the non-controlled value
// is detected by any test for any input fault at the non-controlling
// value, so the output fault is dropped.
//
//   - AND:  out s-a-1 dropped (any in s-a-1 test detects it)
//   - NAND: out s-a-0 dropped
//   - OR:   out s-a-0 dropped
//   - NOR:  out s-a-1 dropped
//
// Witness chains are acyclic (each step moves strictly toward the
// primary inputs), so transitivity keeps the reduction sound: a complete
// test set for the returned list detects every dropped fault. Dominance
// collapsing is meant for test generation; coverage percentages over a
// dominance-collapsed list are not comparable to equivalence-collapsed
// numbers.
func CollapseWithDominance(c *netlist.Circuit) []Fault {
	kept, _ := collapseExcluding(c, nil)
	return kept
}

// CollapseExcluding is CollapseWithDominance with a set of known-
// untestable faults (typically the static redundancy pass of
// internal/implic) folded in: every equivalence class containing a
// redundant fault is removed outright — equivalent faults share their
// (empty) test sets — and dominance drops only use witnesses from
// non-redundant classes, because a dominance argument through a
// redundant witness guarantees nothing (the witness has no tests).
func CollapseExcluding(c *netlist.Circuit, redundant []Fault) []Fault {
	kept, _ := collapseExcluding(c, redundant)
	return kept
}

func collapseExcluding(c *netlist.Circuit, redundant []Fault) ([]Fault, []dominanceDrop) {
	x := newFaultIndex(c)
	uf := buildUnions(c, x)
	collapsed := collapse(c, x, uf, Universe(c))
	redRoot := make([]bool, x.size)
	for _, f := range redundant {
		redRoot[uf.find(x.of(f))] = true
	}
	// repOf[root] is the position in collapsed of the class's
	// representative, plus one (0 = the class has none).
	repOf := make([]int32, x.size)
	for k, rep := range collapsed {
		repOf[uf.find(x.of(rep))] = int32(k + 1)
	}
	classRep := func(f Fault) (int, bool) {
		k := repOf[uf.find(x.of(f))]
		return int(k) - 1, k > 0
	}
	redundantRep := func(k int) bool { return redRoot[uf.find(x.of(collapsed[k]))] }

	dropped := make([]bool, len(collapsed))
	var drops []dominanceDrop
	for id := 0; id < c.NumGates(); id++ {
		g := c.Gate(id)
		cv, ok := g.Type.ControllingValue()
		if !ok {
			continue
		}
		// Output value when some input holds the controlling value; the
		// dominated output fault is stuck at its complement.
		controlled := cv
		if g.Type.Inverting() {
			controlled = !cv
		}
		dRep, ok := classRep(Fault{Gate: id, Pin: -1, Stuck: !controlled})
		if !ok || dropped[dRep] || redundantRep(dRep) {
			continue
		}
		// Witness: any input fault at the non-controlling value whose
		// class is distinct from the dropped class and not redundant.
		// (A dominance chain through an already-dropped witness stays
		// sound by transitivity; a redundant witness would not.)
		for pin := range g.Fanin {
			wRep, ok := classRep(inputFault(c, id, pin, !cv))
			if ok && wRep != dRep && !redundantRep(wRep) {
				dropped[dRep] = true
				drops = append(drops, dominanceDrop{Dropped: collapsed[dRep], Witness: collapsed[wRep]})
				break
			}
		}
	}
	kept := make([]Fault, 0, len(collapsed)-len(drops))
	for k, rep := range collapsed {
		if !dropped[k] && !redundantRep(k) {
			kept = append(kept, rep)
		}
	}
	return kept, drops
}
