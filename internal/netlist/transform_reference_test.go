package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// cloneBuilder returns a Builder pre-loaded with a deep copy of c.
func cloneBuilder(c *Circuit) *Builder {
	b := NewBuilder(c.name)
	b.gates = make([]Gate, len(c.gates))
	for id, g := range c.gates {
		b.gates[id] = Gate{Type: g.Type, Name: g.Name, Fanin: slices.Clone(g.Fanin)}
		b.names[g.Name] = id
	}
	b.outputs = slices.Clone(c.outputs)
	return b
}

// uniqueName returns preferred when no gate of b holds it yet, otherwise
// a fresh generated variant.
func uniqueName(b *Builder, preferred string) string {
	if _, taken := b.names[preferred]; !taken && !b.reserved[preferred] {
		return preferred
	}
	return b.FreshName(preferred)
}

// referenceInsertTestPoints is InsertTestPoints as it stood before it
// built the new circuit's gates directly: a clone of the receiver in a
// Builder, rewrites, and a Build. The differential test below holds
// InsertTestPoints to it.
func referenceInsertTestPoints(c *Circuit, points []TestPoint) (*Circuit, error) {
	for _, p := range points {
		if p.Signal < 0 || p.Signal >= len(c.gates) {
			return nil, fmt.Errorf("netlist: test point signal %d out of range", p.Signal)
		}
	}
	b := cloneBuilder(c)
	cur := make(map[int]int)
	current := func(s int) int {
		if r, ok := cur[s]; ok {
			return r
		}
		return s
	}
	rewire := func(s, from, to int) {
		for _, consumer := range c.Fanout(s) {
			g := b.Gate(consumer)
			for pin, f := range g.Fanin {
				if f == from {
					b.gates[consumer].Fanin[pin] = to
				}
			}
		}
	}
	for i, p := range points {
		s := p.Signal
		name := c.gates[s].Name
		switch p.Kind {
		case Observe:
			op := b.BufGate(uniqueName(b, fmt.Sprintf("%s_op%d", name, i)), current(s))
			b.MarkOutput(op)
		case Control0, Control1:
			tpIn := b.Input(uniqueName(b, fmt.Sprintf("%s_tp%d", name, i)))
			var gated int
			if p.Kind == Control0 {
				gated = b.AndGate(uniqueName(b, fmt.Sprintf("%s_cp%d", name, i)), current(s), tpIn)
			} else {
				gated = b.OrGate(uniqueName(b, fmt.Sprintf("%s_cp%d", name, i)), current(s), tpIn)
			}
			rewire(s, current(s), gated)
			cur[s] = gated
		case FullCut:
			op := b.BufGate(uniqueName(b, fmt.Sprintf("%s_op%d", name, i)), current(s))
			b.MarkOutput(op)
			tpIn := b.Input(uniqueName(b, fmt.Sprintf("%s_tp%d", name, i)))
			rewire(s, current(s), tpIn)
			cur[s] = tpIn
		default:
			return nil, fmt.Errorf("netlist: unknown test point kind %v", p.Kind)
		}
	}
	return b.Build()
}

// TestInsertTestPointsMatchesReference inserts random plans, with
// repeated signals and every kind, into random circuits whose gate names
// collide with the names insertion generates, and requires the circuit
// the Builder-based reference builds: the same gates, names, fanins,
// inputs, outputs and fanout. The receiver, whose fanin lists the result
// shares, must come out unchanged.
// TestInsertTestPointsAvoidsReceiverNames: an added name the receiver
// already holds takes a fresh variant, as the reference names it.
func TestInsertTestPointsAvoidsReceiverNames(t *testing.T) {
	b := NewBuilder("taken")
	x := b.Input("x")
	y := b.Input("y")
	g := b.AndGate("x_op0", x, y)
	g = b.OrGate("x_cp1", g, y)
	g = b.XorGate("x_tp1_1", g, x)
	b.MarkOutput(g)
	c := b.MustBuild()
	points := []TestPoint{{x, Observe}, {x, Control1}, {x, FullCut}}
	got, err := c.InsertTestPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceInsertTestPoints(c, points)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for id := c.NumGates(); id < got.NumGates(); id++ {
		names = append(names, got.GateName(id))
		if w := want.GateName(id); got.GateName(id) != w {
			t.Errorf("gate %d is %s, reference %s", id, got.GateName(id), w)
		}
	}
	if w := []string{"x_op0_1", "x_tp1", "x_cp1_2", "x_op2", "x_tp2"}; !slices.Equal(names, w) {
		t.Errorf("added names %v, want %v", names, w)
	}
}

func TestInsertTestPointsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		b := NewBuilder("ins")
		for i := 0; i < 4; i++ {
			b.Input(fmt.Sprint("g", i))
		}
		for b.NumGates() < 30 {
			n := b.NumGates()
			// Names a rewrite of gate 3 or 5 would otherwise generate.
			name := fmt.Sprint("g", n)
			if rng.Intn(4) == 0 {
				name = fmt.Sprintf("g%d_%s%d", 3+2*rng.Intn(2), []string{"op", "tp", "cp"}[rng.Intn(3)], rng.Intn(3))
				if rng.Intn(2) == 0 {
					name += "_1"
				}
			}
			name = uniqueName(b, name)
			a, x := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				b.NotGate(name, a)
			case 1:
				b.AndGate(name, a, x, a) // a pin read twice
			case 2:
				b.OrGate(name, a, x)
			default:
				b.XorGate(name, a, x)
			}
		}
		b.MarkOutput(b.NumGates() - 1)
		b.MarkOutput(b.NumGates() - 2)
		c := b.MustBuild()
		fanin := make([][]int, c.NumGates())
		for id := range fanin {
			fanin[id] = slices.Clone(c.Fanin(id))
		}
		var points []TestPoint
		for k := rng.Intn(6); k >= 0; k-- {
			points = append(points, TestPoint{Signal: []int{3, 5, rng.Intn(c.NumGates())}[rng.Intn(3)], Kind: TestPointKind(rng.Intn(4))})
		}
		got, err := c.InsertTestPoints(points)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceInsertTestPoints(c, points)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumGates() != want.NumGates() || !slices.Equal(got.Inputs(), want.Inputs()) || !slices.Equal(got.Outputs(), want.Outputs()) {
			t.Fatalf("trial %d %v: %d gates, inputs %v, outputs %v; reference %d, %v, %v",
				trial, points, got.NumGates(), got.Inputs(), got.Outputs(), want.NumGates(), want.Inputs(), want.Outputs())
		}
		for id := 0; id < want.NumGates(); id++ {
			g, w := got.Gate(id), want.Gate(id)
			if g.Name != w.Name || g.Type != w.Type || !slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(got.Fanout(id), want.Fanout(id)) {
				t.Fatalf("trial %d %v: gate %d is %+v, reference %+v", trial, points, id, g, w)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for id := range fanin {
			if !slices.Equal(c.Fanin(id), fanin[id]) {
				t.Fatalf("trial %d %v: the receiver's gate %d now reads %v, was %v", trial, points, id, c.Fanin(id), fanin[id])
			}
		}
	}
}
