package netlist

import "fmt"

// Builder accumulates gates and produces a validated Circuit. The zero
// Builder is not usable; call NewBuilder.
type Builder struct {
	name     string
	gates    []Gate
	outputs  []int
	names    map[string]int
	reserved map[string]bool
	anon     int
}

// NewBuilder returns an empty Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, names: make(map[string]int), reserved: make(map[string]bool)}
}

// ReserveNames marks names as taken for FreshName/UniqueName generation
// without adding gates. Rewrite passes reserve every original name up
// front so generated names cannot collide with originals added later.
func (b *Builder) ReserveNames(names ...string) {
	for _, n := range names {
		b.reserved[n] = true
	}
}

// NumGates returns the number of gates added so far.
func (b *Builder) NumGates() int { return len(b.gates) }

// FreshName returns a generated signal name guaranteed not to collide with
// any name added so far.
func (b *Builder) FreshName(prefix string) string {
	for {
		b.anon++
		name := fmt.Sprintf("%s_%d", prefix, b.anon)
		if _, taken := b.names[name]; !taken && !b.reserved[name] {
			return name
		}
	}
}

// UniqueName returns preferred when no gate holds it yet, otherwise a
// fresh generated variant.
func (b *Builder) UniqueName(preferred string) string {
	if _, taken := b.names[preferred]; !taken && !b.reserved[preferred] {
		return preferred
	}
	return b.FreshName(preferred)
}

// Add appends a gate with the given type, name and fanin IDs, returning the
// new gate's ID. An empty name is replaced with a fresh generated name.
// Structural errors (bad arity, duplicate names, dangling fanin) are
// reported by Build, so call sites can chain Adds without per-call checks.
func (b *Builder) Add(t GateType, name string, fanin ...int) int {
	if name == "" {
		name = b.FreshName(typePrefix(t))
	}
	id := len(b.gates)
	b.gates = append(b.gates, Gate{Type: t, Name: name, Fanin: fanin})
	if _, taken := b.names[name]; !taken {
		b.names[name] = id
	}
	return id
}

func typePrefix(t GateType) string {
	switch t {
	case Input:
		return "in"
	case Not:
		return "inv"
	default:
		return "n"
	}
}

// Input adds a primary input.
func (b *Builder) Input(name string) int { return b.Add(Input, name) }

// BufGate adds a buffer.
func (b *Builder) BufGate(name string, in int) int { return b.Add(Buf, name, in) }

// NotGate adds an inverter.
func (b *Builder) NotGate(name string, in int) int { return b.Add(Not, name, in) }

// AndGate adds an AND gate.
func (b *Builder) AndGate(name string, in ...int) int { return b.Add(And, name, in...) }

// NandGate adds a NAND gate.
func (b *Builder) NandGate(name string, in ...int) int { return b.Add(Nand, name, in...) }

// OrGate adds an OR gate.
func (b *Builder) OrGate(name string, in ...int) int { return b.Add(Or, name, in...) }

// NorGate adds a NOR gate.
func (b *Builder) NorGate(name string, in ...int) int { return b.Add(Nor, name, in...) }

// XorGate adds an XOR gate.
func (b *Builder) XorGate(name string, in ...int) int { return b.Add(Xor, name, in...) }

// XnorGate adds an XNOR gate.
func (b *Builder) XnorGate(name string, in ...int) int { return b.Add(Xnor, name, in...) }

// MarkOutput designates the signal as a primary output. Duplicate marks
// are tolerated.
func (b *Builder) MarkOutput(id int) { b.outputs = append(b.outputs, id) }

// IsMarkedOutput reports whether the signal has been marked as a primary
// output so far.
func (b *Builder) IsMarkedOutput(id int) bool {
	for _, o := range b.outputs {
		if o == id {
			return true
		}
	}
	return false
}

// GateByName returns the ID of the first gate added with the given name.
func (b *Builder) GateByName(name string) (int, bool) {
	id, ok := b.names[name]
	return id, ok
}

// Gate returns the gate with the given ID as currently recorded. The
// Fanin slice aliases builder state; treat it as read-only.
func (b *Builder) Gate(id int) Gate { return b.gates[id] }

// ReplaceFanin rewires pin of gate id to the signal newIn. Used by the
// test point insertion rewrites.
func (b *Builder) ReplaceFanin(id, pin, newIn int) {
	b.gates[id].Fanin[pin] = newIn
}

// Build validates the accumulated gates and returns the Circuit.
func (b *Builder) Build() (*Circuit, error) {
	gates := make([]Gate, len(b.gates))
	for id, g := range b.gates {
		fanin := make([]int, len(g.Fanin))
		copy(fanin, g.Fanin)
		gates[id] = Gate{Type: g.Type, Name: g.Name, Fanin: fanin}
	}
	return newCircuit(b.name, gates, append([]int(nil), b.outputs...))
}

// MustBuild is Build for circuits that are known-correct by construction
// (generators, tests); it panics on error.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("netlist: MustBuild: %v", err))
	}
	return c
}
