package logic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/netlist"
)

func TestRunMatchesScalarEval(t *testing.T) {
	c := gen.C17()
	s := New(c)
	// Exhaustive 32 vectors packed into one block's low bits.
	words := make([]uint64, c.NumInputs())
	for v := 0; v < 32; v++ {
		for i := range words {
			if v>>uint(i)&1 == 1 {
				words[i] |= 1 << uint(v)
			}
		}
	}
	if err := s.Run(words); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 32; v++ {
		vec := make([]bool, c.NumInputs())
		for i := range vec {
			vec[i] = v>>uint(i)&1 == 1
		}
		want := scalarEval(c, vec)
		for id := 0; id < c.NumGates(); id++ {
			got := s.Value(id)>>uint(v)&1 == 1
			if got != want[id] {
				t.Fatalf("vector %d gate %s: parallel=%v scalar=%v", v, c.GateName(id), got, want[id])
			}
		}
	}
}

func scalarEval(c *netlist.Circuit, vec []bool) []bool {
	vals := make([]bool, c.NumGates())
	for i, in := range c.Inputs() {
		vals[in] = vec[i]
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		in := make([]bool, len(g.Fanin))
		for pin, f := range g.Fanin {
			in[pin] = vals[f]
		}
		vals[id] = g.Type.Eval(in)
	}
	return vals
}

func TestRunWrongInputCount(t *testing.T) {
	s := New(gen.C17())
	if err := s.Run(make([]uint64, 3)); err == nil {
		t.Error("expected error for wrong input word count")
	}
}

// TestParallelScalarAgreement is a property test: for random DAGs and
// random blocks, bit-parallel evaluation agrees with scalar evaluation on
// every bit lane.
func TestParallelScalarAgreement(t *testing.T) {
	c := gen.RandomDAG(11, 6, 40, gen.DAGOptions{})
	s := New(c)
	f := func(w0, w1, w2, w3, w4, w5 uint64, lane uint8) bool {
		words := []uint64{w0, w1, w2, w3, w4, w5}
		if err := s.Run(words); err != nil {
			return false
		}
		l := uint(lane % 64)
		vec := make([]bool, 6)
		for i := range vec {
			vec[i] = words[i]>>l&1 == 1
		}
		want := scalarEval(c, vec)
		for id := 0; id < c.NumGates(); id++ {
			if (s.Value(id)>>l&1 == 1) != want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSignalStats(t *testing.T) {
	// For a 2-input AND with exhaustive patterns, P(out=1) = 1/4.
	b := netlist.NewBuilder("and2")
	a := b.Input("a")
	x := b.Input("b")
	g := b.AndGate("g", a, x)
	b.MarkOutput(g)
	c := b.MustBuild()
	s := New(c)
	st := NewSignalStats(c)
	words := []uint64{0b0101, 0b0011} // 4 exhaustive patterns
	if err := s.Run(words); err != nil {
		t.Fatal(err)
	}
	st.Accumulate(s, 4)
	if p := st.Probability(g); math.Abs(p-0.25) > 1e-12 {
		t.Errorf("P(and)=%f, want 0.25", p)
	}
	if p := st.Probability(a); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(a)=%f, want 0.5", p)
	}
	// Bits above n must be masked out.
	st2 := NewSignalStats(c)
	words2 := []uint64{^uint64(0), ^uint64(0)}
	if err := s.Run(words2); err != nil {
		t.Fatal(err)
	}
	st2.Accumulate(s, 10)
	if st2.Ones[g] != 10 {
		t.Errorf("masked accumulate counted %d ones, want 10", st2.Ones[g])
	}
	if st2.Patterns != 10 {
		t.Errorf("patterns = %d, want 10", st2.Patterns)
	}
}

func TestProbabilityEmptyStats(t *testing.T) {
	st := NewSignalStats(gen.C17())
	if st.Probability(0) != 0 {
		t.Error("empty stats must report probability 0")
	}
}
