package netlist

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Circuit is an immutable, validated gate-level combinational circuit.
// Construct one with a Builder or by parsing a .bench file. All derived
// structure (fanout lists, levels, topological order) is computed once at
// build time, except the name index, which the first GateByName or
// Validate builds.
type Circuit struct {
	name    string
	gates   []Gate
	inputs  []int
	outputs []int

	isOutput []bool
	// fanout holds every signal's consumer gate IDs in one flat array,
	// one entry per consuming pin, in consumer-ID order: signal id's run
	// is fanout[fanoutStart[id]:fanoutStart[id+1]].
	fanout      []int
	fanoutStart []int32
	level       []int32 // logic level; inputs are level 0
	order       []int   // topological order, inputs first

	// byName maps every gate's name to its ID. It is built once, under
	// nameOnce, by the first call that needs it: planning and simulating
	// a circuit never look a name up.
	nameOnce sync.Once
	byName   map[string]int
}

// ErrCombinationalLoop is returned when a circuit under construction
// contains a cycle.
var ErrCombinationalLoop = errors.New("netlist: combinational loop")

// Assemble validates a gate list and returns its circuit, as Build does
// for a Builder's gates. It takes ownership of gates and outputs. The
// gates' names must be distinct, as a parser that numbers each name once
// guarantees: Assemble does not check them, and Validate reports a
// circuit whose names repeat. Duplicate outputs are tolerated.
func Assemble(name string, gates []Gate, outputs []int) (*Circuit, error) {
	return newCircuit(name, gates, outputs, nil)
}

// newCircuit validates the raw gate list and computes derived structure.
// A non-nil first maps each name to the first gate that holds it, as a
// Builder keeps it, and a gate it does not name is reported as a
// duplicate.
func newCircuit(name string, gates []Gate, outputs []int, first map[string]int) (*Circuit, error) {
	c := &Circuit{name: name, gates: gates}
	inputs := 0
	for id, g := range gates {
		if !g.Type.Valid() {
			return nil, fmt.Errorf("netlist: gate %d (%q): invalid type", id, g.Name)
		}
		if g.Name == "" {
			return nil, fmt.Errorf("netlist: gate %d: empty name", id)
		}
		if first != nil {
			if prev := first[g.Name]; prev != id {
				return nil, fmt.Errorf("netlist: duplicate gate name %q (ids %d and %d)", g.Name, prev, id)
			}
		}
		if n, min, max := len(g.Fanin), g.Type.MinFanin(), g.Type.MaxFanin(); n < min || (max >= 0 && n > max) {
			return nil, fmt.Errorf("netlist: gate %q (%s): fanin count %d out of range", g.Name, g.Type, n)
		}
		for pin, f := range g.Fanin {
			if f < 0 || f >= len(gates) {
				return nil, fmt.Errorf("netlist: gate %q pin %d: fanin id %d out of range", g.Name, pin, f)
			}
		}
		if g.Type == Input {
			inputs++
		}
	}
	c.inputs = make([]int, 0, inputs)
	for id, g := range gates {
		if g.Type == Input {
			c.inputs = append(c.inputs, id)
		}
	}

	c.isOutput = make([]bool, len(gates))
	c.outputs = make([]int, 0, len(outputs))
	for _, o := range outputs {
		if o < 0 || o >= len(gates) {
			return nil, fmt.Errorf("netlist: output id %d out of range", o)
		}
		if c.isOutput[o] {
			continue // tolerate duplicate output declarations
		}
		c.isOutput[o] = true
		c.outputs = append(c.outputs, o)
	}
	if len(c.outputs) == 0 {
		return nil, errors.New("netlist: circuit has no primary outputs")
	}

	c.buildFanout()
	if err := c.levelize(); err != nil {
		return nil, err
	}
	return c, nil
}

// buildFanout lays every signal's fanout list out in one flat slice, in
// consumer-ID order with one entry per consuming pin.
func (c *Circuit) buildFanout() {
	n := len(c.gates)
	// start[f] counts f's pins, then becomes the end of f's run, and the
	// backwards fill below walks it down to the run's start.
	start := make([]int32, n+1)
	for _, g := range c.gates {
		for _, f := range g.Fanin {
			start[f]++
		}
	}
	for f := 1; f <= n; f++ {
		start[f] += start[f-1]
	}
	flat := make([]int, start[n])
	for id := n - 1; id >= 0; id-- {
		for _, f := range c.gates[id].Fanin {
			start[f]--
			flat[start[f]] = id
		}
	}
	c.fanout, c.fanoutStart = flat, start
}

// levelize computes the topological order and logic levels via Kahn's
// algorithm, detecting combinational loops. The order doubles as the
// queue: gates are appended when their last fanin is placed.
func (c *Circuit) levelize() error {
	n := len(c.gates)
	c.level = make([]int32, n)
	c.order = make([]int, 0, n)
	indeg := make([]int32, n)
	for id := range c.gates {
		indeg[id] = int32(len(c.gates[id].Fanin))
		if indeg[id] == 0 {
			c.order = append(c.order, id)
		}
	}
	for head := 0; head < len(c.order); head++ {
		id := c.order[head]
		for _, s := range c.Fanout(id) {
			if l := c.level[id] + 1; l > c.level[s] {
				c.level[s] = l
			}
			indeg[s]--
			if indeg[s] == 0 {
				c.order = append(c.order, s)
			}
		}
	}
	if len(c.order) != n {
		return ErrCombinationalLoop
	}
	return nil
}

// Name returns the circuit name.
func (c *Circuit) Name() string { return c.name }

// NumGates returns the total number of gates including primary inputs.
func (c *Circuit) NumGates() int { return len(c.gates) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.outputs) }

// Gate returns the gate with the given ID.
func (c *Circuit) Gate(id int) Gate { return c.gates[id] }

// Type returns the gate type of the given ID.
func (c *Circuit) Type(id int) GateType { return c.gates[id].Type }

// GateName returns the name of the given gate.
func (c *Circuit) GateName(id int) string { return c.gates[id].Name }

// Fanin returns the fanin signal IDs of the given gate. The returned slice
// must not be modified.
func (c *Circuit) Fanin(id int) []int { return c.gates[id].Fanin }

// Fanout returns the consumer gate IDs of the given signal (one entry per
// consuming pin, so a gate consuming the signal twice appears twice). The
// returned slice must not be modified.
func (c *Circuit) Fanout(id int) []int {
	lo, hi := c.fanoutStart[id], c.fanoutStart[id+1]
	return c.fanout[lo:hi:hi]
}

// FanoutCount returns the number of consuming pins of signal id.
func (c *Circuit) FanoutCount(id int) int { return int(c.fanoutStart[id+1] - c.fanoutStart[id]) }

// Inputs returns the primary input IDs in declaration order. The returned
// slice must not be modified.
func (c *Circuit) Inputs() []int { return c.inputs }

// Outputs returns the primary output IDs in declaration order. The
// returned slice must not be modified.
func (c *Circuit) Outputs() []int { return c.outputs }

// IsOutput reports whether the signal is a primary output.
func (c *Circuit) IsOutput(id int) bool { return c.isOutput[id] }

// Level returns the logic level of the gate (primary inputs are level 0).
func (c *Circuit) Level(id int) int { return int(c.level[id]) }

// Depth returns the maximum logic level over all gates.
func (c *Circuit) Depth() int {
	d := int32(0)
	for _, l := range c.level {
		d = max(d, l)
	}
	return int(d)
}

// TopoOrder returns the gate IDs in a topological order (fanin before
// fanout). The returned slice must not be modified.
func (c *Circuit) TopoOrder() []int { return c.order }

// GateByName returns the ID of the gate with the given name. The first
// call builds the circuit's name index.
func (c *Circuit) GateByName(name string) (int, bool) {
	id, ok := c.nameIndex()[name]
	return id, ok
}

// nameIndex returns the name index, building it on first use.
func (c *Circuit) nameIndex() map[string]int {
	c.nameOnce.Do(func() {
		c.byName = make(map[string]int, len(c.gates))
		for id, g := range c.gates {
			c.byName[g.Name] = id
		}
	})
	return c.byName
}

// Stats summarises the structural properties of a circuit.
type Stats struct {
	Gates      int // total gates including inputs
	Inputs     int
	Outputs    int
	Levels     int // circuit depth
	Stems      int // signals with fanout count != 1
	Lines      int // fault sites: stems plus fanout branches
	ByType     map[GateType]int
	FanoutFree bool
}

// Stats computes structural statistics for the circuit.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Gates:      len(c.gates),
		Inputs:     len(c.inputs),
		Outputs:    len(c.outputs),
		Levels:     c.Depth(),
		ByType:     make(map[GateType]int),
		FanoutFree: c.IsFanoutFree(),
	}
	for id, g := range c.gates {
		s.ByType[g.Type]++
		if c.IsStem(id) {
			s.Stems++
		}
		s.Lines++ // the stem itself
		if n := c.FanoutCount(id); n > 1 {
			s.Lines += n
		}
	}
	return s
}

// String renders a compact human-readable summary.
func (c *Circuit) String() string {
	s := c.Stats()
	types := make([]string, 0, len(s.ByType))
	keys := make([]int, 0, len(s.ByType))
	for t := range s.ByType {
		keys = append(keys, int(t))
	}
	sort.Ints(keys)
	for _, t := range keys {
		types = append(types, fmt.Sprintf("%s=%d", GateType(t), s.ByType[GateType(t)]))
	}
	return fmt.Sprintf("%s: %d gates (%d PI, %d PO, depth %d; %s)",
		c.name, s.Gates, s.Inputs, s.Outputs, s.Levels, strings.Join(types, " "))
}
