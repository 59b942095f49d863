package netlist

import "fmt"

// Validate re-checks the structural invariants that newCircuit
// establishes at build time: gate/fanin well-formedness, fanin/fanout
// symmetry, topological-order and level consistency (which together imply
// acyclicity), and the input/output bookkeeping. A freshly built Circuit
// always passes; the method exists so the lint pass and tests can confirm
// the invariants still hold after rewrites (transform.go) that rebuild
// circuits, catching any future rewrite bug at its source instead of deep
// inside a simulator.
func (c *Circuit) Validate() error {
	n := len(c.gates)

	// Gates: types, names, arity, fanin ranges, name index.
	byName := c.nameIndex()
	if len(byName) != n {
		return fmt.Errorf("netlist: name index has %d entries for %d gates", len(byName), n)
	}
	inputs := 0
	for id, g := range c.gates {
		if !g.Type.Valid() {
			return fmt.Errorf("netlist: gate %d (%q): invalid type", id, g.Name)
		}
		if g.Name == "" {
			return fmt.Errorf("netlist: gate %d: empty name", id)
		}
		if got, ok := byName[g.Name]; !ok || got != id {
			return fmt.Errorf("netlist: name index maps %q to %d, want %d", g.Name, got, id)
		}
		if cnt, min, max := len(g.Fanin), g.Type.MinFanin(), g.Type.MaxFanin(); cnt < min || (max >= 0 && cnt > max) {
			return fmt.Errorf("netlist: gate %q (%s): fanin count %d out of range", g.Name, g.Type, cnt)
		}
		for pin, f := range g.Fanin {
			if f < 0 || f >= n {
				return fmt.Errorf("netlist: gate %q pin %d: fanin id %d out of range", g.Name, pin, f)
			}
		}
		if g.Type == Input {
			inputs++
		}
	}

	// Input list: exactly the Input-typed gates, in ascending ID order.
	if len(c.inputs) != inputs {
		return fmt.Errorf("netlist: input list has %d entries, circuit has %d Input gates", len(c.inputs), inputs)
	}
	prev := -1
	for _, id := range c.inputs {
		if id <= prev || id >= n || c.gates[id].Type != Input {
			return fmt.Errorf("netlist: input list entry %d is not a fresh Input gate", id)
		}
		prev = id
	}

	// Output list and flags. scratch holds one counter per signal and is
	// reused by each check below.
	if len(c.outputs) == 0 {
		return fmt.Errorf("netlist: circuit has no primary outputs")
	}
	if len(c.isOutput) != n {
		return fmt.Errorf("netlist: output flag slice has %d entries for %d gates", len(c.isOutput), n)
	}
	scratch := make([]int, n)
	for _, o := range c.outputs {
		if o < 0 || o >= n {
			return fmt.Errorf("netlist: output id %d out of range", o)
		}
		if scratch[o] != 0 {
			return fmt.Errorf("netlist: output id %d listed twice", o)
		}
		scratch[o] = 1
		if !c.isOutput[o] {
			return fmt.Errorf("netlist: output id %d not flagged", o)
		}
	}
	marked := 0
	for id, f := range c.isOutput {
		if f {
			marked++
			if scratch[id] == 0 {
				return fmt.Errorf("netlist: gate %d flagged as output but not listed", id)
			}
		}
	}
	if marked != len(c.outputs) {
		return fmt.Errorf("netlist: %d gates flagged as outputs, %d listed", marked, len(c.outputs))
	}

	// Fanout runs: n+1 offsets, ascending from 0 to the end of the flat
	// array, so every signal's run lies inside it.
	if len(c.fanoutStart) != n+1 || c.fanoutStart[0] != 0 || int(c.fanoutStart[n]) != len(c.fanout) {
		return fmt.Errorf("netlist: fanout offsets do not span the %d fanout entries of %d gates", len(c.fanout), n)
	}
	for id := 0; id < n; id++ {
		if c.fanoutStart[id+1] < c.fanoutStart[id] {
			return fmt.Errorf("netlist: signal %d: fanout run ends before it starts", id)
		}
	}

	// Fanin/fanout symmetry: the fanout lists must be exactly the
	// transpose of the fanin lists, with one entry per consuming pin, in
	// gate-ID order (the order newCircuit builds them in). The lowest
	// signal that breaks this is reported, a wrong count before a wrong
	// entry.
	clear(scratch)
	for _, g := range c.gates {
		for _, f := range g.Fanin {
			scratch[f]++
		}
	}
	bad, badCount := n, 0
	for id, cnt := range scratch {
		if cnt != c.FanoutCount(id) {
			bad, badCount = id, cnt
			break
		}
	}
	// Every signal below bad has the right count, so a cursor per signal
	// stays within its entries as the pins are walked in gate-ID order.
	clear(scratch)
	badEntry, badWant := -1, 0
	for id, g := range c.gates {
		for _, f := range g.Fanin {
			if f >= bad {
				continue
			}
			if c.Fanout(f)[scratch[f]] != id {
				bad, badEntry, badWant = f, scratch[f], id
				continue
			}
			scratch[f]++
		}
	}
	if badEntry >= 0 {
		return fmt.Errorf("netlist: signal %d: fanout entry %d is %d, transpose of fanin gives %d",
			bad, badEntry, c.Fanout(bad)[badEntry], badWant)
	}
	if bad < n {
		return fmt.Errorf("netlist: signal %d: fanout count %d, transpose of fanin gives %d",
			bad, c.FanoutCount(bad), badCount)
	}

	// Topological order: a permutation in which every gate follows all of
	// its fanins. Together with the fanin range checks this implies the
	// circuit is acyclic.
	if len(c.order) != n {
		return fmt.Errorf("netlist: topo order has %d entries for %d gates", len(c.order), n)
	}
	pos := scratch
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range c.order {
		if id < 0 || id >= n {
			return fmt.Errorf("netlist: topo order entry %d out of range", id)
		}
		if pos[id] != -1 {
			return fmt.Errorf("netlist: gate %d appears twice in topo order", id)
		}
		pos[id] = i
	}
	for id, g := range c.gates {
		for _, f := range g.Fanin {
			if pos[f] >= pos[id] {
				return fmt.Errorf("netlist: topo order places gate %d before its fanin %d", id, f)
			}
		}
	}

	// Levels: 0 for fanin-free gates, 1 + max(fanin levels) otherwise.
	if len(c.level) != n {
		return fmt.Errorf("netlist: level slice has %d entries for %d gates", len(c.level), n)
	}
	for id, g := range c.gates {
		want := int32(0)
		for _, f := range g.Fanin {
			want = max(want, c.level[f]+1)
		}
		if c.level[id] != want {
			return fmt.Errorf("netlist: gate %d has level %d, want %d", id, c.level[id], want)
		}
	}
	return nil
}
