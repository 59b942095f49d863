package netlist

import (
	"fmt"
	"slices"
)

// TestPointKind enumerates the kinds of test points that can be inserted
// into a circuit.
type TestPointKind uint8

// Test point kinds. Observe taps a signal to a new primary output.
// Control0/Control1 gate a signal with a new test input through an
// AND/OR gate so the tester can force it to 0/1. FullCut observes the
// original signal and replaces all its consumers with a fresh primary
// input — the "cut" used by the Hayes–Friedman test-count objective,
// equivalent to a combined control-and-observation point.
const (
	Observe TestPointKind = iota
	Control0
	Control1
	FullCut
)

// String returns the mnemonic of the test point kind.
func (k TestPointKind) String() string {
	switch k {
	case Observe:
		return "observe"
	case Control0:
		return "control0"
	case Control1:
		return "control1"
	case FullCut:
		return "cut"
	}
	return fmt.Sprintf("TestPointKind(%d)", uint8(k))
}

// TestPoint is a placement decision: insert a test point of the given kind
// at the named signal.
type TestPoint struct {
	Signal int // signal ID in the original circuit
	Kind   TestPointKind
}

// InsertTestPoints returns a new circuit with the given test points
// inserted. Signal IDs in the plan refer to the receiver circuit; gate IDs
// of pre-existing gates are preserved in the result (new gates are
// appended), so analyses carried out on the original circuit can be mapped
// onto the modified one.
//
// Rewrites per kind:
//   - Observe: signal is additionally marked as a primary output (through a
//     dedicated observation buffer so the tap is itself a distinct line).
//   - Control0: consumers of signal s are rewired to AND(s, tp_in) where
//     tp_in is a new primary input; driving tp_in=0 forces the line to 0.
//   - Control1: likewise through OR(s, tp_in); tp_in=1 forces the line to 1.
//   - FullCut: signal is observed via a buffer marked as a primary output,
//     and all consumers are rewired to a fresh primary input.
func (c *Circuit) InsertTestPoints(points []TestPoint) (*Circuit, error) {
	for _, p := range points {
		if p.Signal < 0 || p.Signal >= len(c.gates) {
			return nil, fmt.Errorf("netlist: test point signal %d out of range", p.Signal)
		}
	}
	r := rewrite{c: c, gates: make([]Gate, len(c.gates), len(c.gates)+2*len(points))}
	if len(points) > 0 {
		r.taken = clashingNames(c.gates)
	}
	// The new circuit shares the receiver's fanin lists: both are
	// immutable, and a consumer that gets rewired is given its own copy
	// first.
	copy(r.gates, c.gates)
	outputs := make([]int, len(c.outputs), len(c.outputs)+len(points))
	copy(outputs, c.outputs)
	// cur maps an original signal to the signal its consumers should read
	// after the rewrites applied so far, so multiple test points on the
	// same signal compose in insertion order.
	cur := make(map[int]int)
	current := func(s int) int {
		if r, ok := cur[s]; ok {
			return r
		}
		return s
	}
	for i, p := range points {
		s := p.Signal
		name := c.gates[s].Name
		switch p.Kind {
		case Observe:
			op := r.add(Buf, fmt.Sprintf("%s_op%d", name, i), current(s))
			outputs = append(outputs, op)
		case Control0, Control1:
			tpIn := r.add(Input, fmt.Sprintf("%s_tp%d", name, i))
			t := And
			if p.Kind == Control1 {
				t = Or
			}
			gated := r.add(t, fmt.Sprintf("%s_cp%d", name, i), current(s), tpIn)
			r.rewireConsumers(s, current(s), gated)
			cur[s] = gated
		case FullCut:
			op := r.add(Buf, fmt.Sprintf("%s_op%d", name, i), current(s))
			outputs = append(outputs, op)
			tpIn := r.add(Input, fmt.Sprintf("%s_tp%d", name, i))
			r.rewireConsumers(s, current(s), tpIn)
			cur[s] = tpIn
		default:
			return nil, fmt.Errorf("netlist: unknown test point kind %v", p.Kind)
		}
	}
	return newCircuit(c.name, r.gates, outputs, nil)
}

// rewrite is a test point insertion in progress: the receiver's gates
// followed by the ones added so far.
type rewrite struct {
	c     *Circuit
	gates []Gate
	anon  int             // the last suffix a fresh name took, as Builder counts it
	taken map[string]bool // the receiver's names an added name could equal
}

// clashingNames returns the names that contain "_op", "_tp" or "_cp",
// as every name an insertion adds does: no other name can equal one.
// It is nil when there are none.
func clashingNames(gates []Gate) map[string]bool {
	var taken map[string]bool
	for _, g := range gates {
		name := g.Name
		for i := 0; i+2 < len(name); i++ {
			if name[i] == '_' && name[i+2] == 'p' && (name[i+1] == 'o' || name[i+1] == 't' || name[i+1] == 'c') {
				if taken == nil {
					taken = make(map[string]bool)
				}
				taken[name] = true
				break
			}
		}
	}
	return taken
}

// add appends a gate named preferred, or a fresh variant of it when the
// receiver holds that name, as Builder.FreshName forms them, and returns
// its ID. Only the receiver's names need a lookup: a preferred
// name ends in its kind and point index, and a fresh variant in "_" and
// a count that never repeats, so no two names insertion makes are equal.
func (r *rewrite) add(t GateType, preferred string, fanin ...int) int {
	name := preferred
	for r.taken[name] {
		r.anon++
		name = fmt.Sprintf("%s_%d", preferred, r.anon)
	}
	r.gates = append(r.gates, Gate{Type: t, Name: name, Fanin: fanin})
	return len(r.gates) - 1
}

// rewireConsumers redirects every pin of the original consumers of signal
// s that currently reads `from` to read `to` instead. Only gates that
// existed in the original circuit are touched; gates inserted for earlier
// test points keep their connections.
func (r *rewrite) rewireConsumers(s, from, to int) {
	for _, consumer := range r.c.Fanout(s) {
		fanin := r.gates[consumer].Fanin
		if &fanin[0] == &r.c.gates[consumer].Fanin[0] {
			// Still the receiver's list: copy it before the first write.
			fanin = slices.Clone(fanin)
			r.gates[consumer].Fanin = fanin
		}
		for pin, f := range fanin {
			if f == from {
				fanin[pin] = to
			}
		}
	}
}

// ExpandXor returns a functionally equivalent circuit in which every XOR
// and XNOR gate has been decomposed into AND/OR/NOT gates. Multi-input
// XORs are decomposed as a balanced chain of 2-input XORs first. The
// Hayes–Friedman test-count theory applies only to unate gate networks, so
// analyses in internal/testcount require expanded circuits.
//
// Note the expansion introduces fanout (each XOR input feeds two gates), so
// an expanded circuit is generally not fanout-free even if the original
// was.
func (c *Circuit) ExpandXor() (*Circuit, error) {
	b := NewBuilder(c.name)
	// Reserve every original name so generated decomposition names cannot
	// collide with originals copied later in topological order.
	for _, g := range c.gates {
		b.ReserveNames(g.Name)
	}
	newID := make([]int, len(c.gates))
	for _, id := range c.order {
		g := c.gates[id]
		fanin := make([]int, len(g.Fanin))
		for pin, f := range g.Fanin {
			fanin[pin] = newID[f]
		}
		switch g.Type {
		case Xor, Xnor:
			cur := fanin[0]
			for i := 1; i < len(fanin); i++ {
				cur = expandXor2(b, cur, fanin[i])
			}
			if g.Type == Xnor {
				cur = b.NotGate("", cur)
			}
			// Preserve the original name on the final signal via a buffer
			// so GateByName lookups keep working.
			newID[id] = b.BufGate(g.Name, cur)
		default:
			newID[id] = b.Add(g.Type, g.Name, fanin...)
		}
	}
	for _, o := range c.outputs {
		b.MarkOutput(newID[o])
	}
	return b.Build()
}

// expandXor2 emits a ^ b = (a AND NOT b) OR (NOT a AND b).
func expandXor2(b *Builder, a, x int) int {
	na := b.NotGate("", a)
	nx := b.NotGate("", x)
	t1 := b.AndGate("", a, nx)
	t2 := b.AndGate("", na, x)
	return b.OrGate("", t1, t2)
}
