package netlist

import (
	"strings"
	"testing"
)

// buildC17 constructs the ISCAS'85 c17 benchmark: 5 inputs, 2 outputs,
// 6 NAND gates, with reconvergent fanout at gates 3 and 11.
func buildC17(t testing.TB) *Circuit {
	t.Helper()
	b := NewBuilder("c17")
	g1 := b.Input("1")
	g2 := b.Input("2")
	g3 := b.Input("3")
	g6 := b.Input("6")
	g7 := b.Input("7")
	g10 := b.NandGate("10", g1, g3)
	g11 := b.NandGate("11", g3, g6)
	g16 := b.NandGate("16", g2, g11)
	g19 := b.NandGate("19", g11, g7)
	g22 := b.NandGate("22", g10, g16)
	g23 := b.NandGate("23", g16, g19)
	b.MarkOutput(g22)
	b.MarkOutput(g23)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("c17 build: %v", err)
	}
	return c
}

func TestBuilderBasics(t *testing.T) {
	c := buildC17(t)
	if got, want := c.NumGates(), 11; got != want {
		t.Errorf("NumGates = %d, want %d", got, want)
	}
	if got, want := c.NumInputs(), 5; got != want {
		t.Errorf("NumInputs = %d, want %d", got, want)
	}
	if got, want := c.NumOutputs(), 2; got != want {
		t.Errorf("NumOutputs = %d, want %d", got, want)
	}
	if got, want := c.Depth(), 3; got != want {
		t.Errorf("Depth = %d, want %d", got, want)
	}
	id, ok := c.GateByName("16")
	if !ok {
		t.Fatal("GateByName(16) not found")
	}
	if c.Type(id) != Nand {
		t.Errorf("gate 16 type = %v, want Nand", c.Type(id))
	}
	if len(c.Fanin(id)) != 2 {
		t.Errorf("gate 16 fanin = %d, want 2", len(c.Fanin(id)))
	}
}

func TestLevelization(t *testing.T) {
	c := buildC17(t)
	for _, in := range c.Inputs() {
		if c.Level(in) != 0 {
			t.Errorf("input %s level = %d, want 0", c.GateName(in), c.Level(in))
		}
	}
	// Every gate must be levelized strictly above all its fanins.
	for _, id := range c.TopoOrder() {
		for _, f := range c.Fanin(id) {
			if c.Level(id) <= c.Level(f) {
				t.Errorf("gate %s level %d not above fanin %s level %d",
					c.GateName(id), c.Level(id), c.GateName(f), c.Level(f))
			}
		}
	}
	// Topological order property: each gate appears after its fanins.
	pos := make(map[int]int)
	for i, id := range c.TopoOrder() {
		pos[id] = i
	}
	for _, id := range c.TopoOrder() {
		for _, f := range c.Fanin(id) {
			if pos[f] >= pos[id] {
				t.Errorf("topo order violated: %s before %s", c.GateName(id), c.GateName(f))
			}
		}
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	b := NewBuilder("loop")
	a := b.Input("a")
	// Create a cycle by self-referencing a future gate ID.
	g1 := b.AndGate("g1", a, 2) // 2 will be g2
	g2 := b.OrGate("g2", g1, a)
	b.MarkOutput(g2)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected combinational loop error, got nil")
	}
}

func TestValidationErrors(t *testing.T) {
	t.Run("no outputs", func(t *testing.T) {
		b := NewBuilder("x")
		b.Input("a")
		if _, err := b.Build(); err == nil {
			t.Error("expected error for circuit with no outputs")
		}
	})
	t.Run("duplicate names", func(t *testing.T) {
		b := NewBuilder("x")
		a := b.Input("a")
		b.Add(Buf, "a", a)
		b.MarkOutput(a)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for duplicate name")
		}
	})
	t.Run("bad arity", func(t *testing.T) {
		b := NewBuilder("x")
		a := b.Input("a")
		g := b.Add(And, "g", a) // AND with one input
		b.MarkOutput(g)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for 1-input AND")
		}
	})
	t.Run("fanin out of range", func(t *testing.T) {
		b := NewBuilder("x")
		a := b.Input("a")
		g := b.Add(Buf, "g", a+100)
		b.MarkOutput(g)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for out-of-range fanin")
		}
	})
}

func TestFanoutComputation(t *testing.T) {
	c := buildC17(t)
	g11, _ := c.GateByName("11")
	if got := c.FanoutCount(g11); got != 2 {
		t.Errorf("fanout(11) = %d, want 2", got)
	}
	g22, _ := c.GateByName("22")
	if got := c.FanoutCount(g22); got != 0 {
		t.Errorf("fanout(22) = %d, want 0", got)
	}
	in3, _ := c.GateByName("3")
	if got := c.FanoutCount(in3); got != 2 {
		t.Errorf("fanout(3) = %d, want 2", got)
	}
}

func TestStemsAndFFRs(t *testing.T) {
	c := buildC17(t)
	// Stems in c17: input 3 (fanout 2), gate 11 (fanout 2), gate 16
	// (fanout 2), POs 22 and 23, and inputs 1,2,6,7 have fanout 1 so they
	// are not stems, gates 10 and 19 have fanout 1 so not stems.
	wantStems := map[string]bool{"3": true, "11": true, "16": true, "22": true, "23": true}
	for id := 0; id < c.NumGates(); id++ {
		name := c.GateName(id)
		if got, want := c.IsStem(id), wantStems[name]; got != want {
			t.Errorf("IsStem(%s) = %v, want %v", name, got, want)
		}
	}
	ffrs := c.FFRs()
	// One FFR per stem.
	if len(ffrs) != len(wantStems) {
		t.Fatalf("got %d FFRs, want %d", len(ffrs), len(wantStems))
	}
	total := 0
	for _, r := range ffrs {
		total += len(r.Gates)
		if !c.IsStem(r.Stem) {
			t.Errorf("FFR stem %s is not a stem", c.GateName(r.Stem))
		}
	}
	if total != c.NumGates() {
		t.Errorf("FFRs cover %d gates, want %d (partition property)", total, c.NumGates())
	}
	// Gate 10 must be in the FFR of 22, gate 19 in the FFR of 23.
	region := c.RegionOf()
	g10, _ := c.GateByName("10")
	g22, _ := c.GateByName("22")
	if region[g10] != g22 {
		t.Errorf("region of 10 = %s, want 22", c.GateName(region[g10]))
	}
	g19, _ := c.GateByName("19")
	g23, _ := c.GateByName("23")
	if region[g19] != g23 {
		t.Errorf("region of 19 = %s, want 23", c.GateName(region[g19]))
	}
}

func TestIsFanoutFree(t *testing.T) {
	if buildC17(t).IsFanoutFree() {
		t.Error("c17 reported fanout-free; it has fanout stems")
	}
	b := NewBuilder("tree")
	a := b.Input("a")
	x := b.Input("b")
	y := b.Input("c")
	g1 := b.AndGate("g1", a, x)
	g2 := b.OrGate("g2", g1, y)
	b.MarkOutput(g2)
	c := b.MustBuild()
	if !c.IsFanoutFree() {
		t.Error("tree circuit reported not fanout-free")
	}
}

func TestHasReconvergentFanout(t *testing.T) {
	if !buildC17(t).HasReconvergentFanout() {
		t.Error("c17 must have reconvergent fanout (stem 11 reconverges at 23 via 16 and 19)")
	}
	// A circuit with fanout but no reconvergence.
	b := NewBuilder("fan")
	a := b.Input("a")
	x := b.Input("b")
	g1 := b.NotGate("g1", a)
	o1 := b.AndGate("o1", g1, x)
	o2 := b.BufGate("o2", g1)
	b.MarkOutput(o1)
	b.MarkOutput(o2)
	c := b.MustBuild()
	if c.HasReconvergentFanout() {
		t.Error("non-reconvergent fanout circuit reported reconvergent")
	}
}

func TestFaninFanoutCones(t *testing.T) {
	c := buildC17(t)
	g22, _ := c.GateByName("22")
	cone := c.FaninCone(g22)
	names := make(map[string]bool)
	for _, id := range cone {
		names[c.GateName(id)] = true
	}
	for _, want := range []string{"1", "2", "3", "6", "10", "11", "16", "22"} {
		if !names[want] {
			t.Errorf("fanin cone of 22 missing %s", want)
		}
	}
	if names["7"] || names["19"] || names["23"] {
		t.Errorf("fanin cone of 22 contains gates outside the cone: %v", names)
	}

	g11, _ := c.GateByName("11")
	fcone := c.FanoutCone(g11)
	fnames := make(map[string]bool)
	for _, id := range fcone {
		fnames[c.GateName(id)] = true
	}
	for _, want := range []string{"11", "16", "19", "22", "23"} {
		if !fnames[want] {
			t.Errorf("fanout cone of 11 missing %s", want)
		}
	}
	if fnames["10"] {
		t.Error("fanout cone of 11 must not contain 10")
	}
}

func TestStatsAndString(t *testing.T) {
	c := buildC17(t)
	s := c.Stats()
	if s.Gates != 11 || s.Inputs != 5 || s.Outputs != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByType[Nand] != 6 {
		t.Errorf("NAND count = %d, want 6", s.ByType[Nand])
	}
	if s.FanoutFree {
		t.Error("c17 stats claim fanout-free")
	}
	// Lines: every signal is a line; fanout branches add FanoutCount lines
	// for stems with fanout>1. c17: 11 stems + branches of 3,11,16 (2 each) = 17.
	if s.Lines != 17 {
		t.Errorf("Lines = %d, want 17", s.Lines)
	}
	str := c.String()
	if !strings.Contains(str, "c17") || !strings.Contains(str, "NAND=6") {
		t.Errorf("String() = %q", str)
	}
}

func TestWriteDot(t *testing.T) {
	c := buildC17(t)
	var sb strings.Builder
	if err := c.WriteDot(&sb); err != nil {
		t.Fatalf("WriteDot: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "->") {
		t.Errorf("dot output malformed: %s", out)
	}
}

func TestGateTypeProperties(t *testing.T) {
	cases := []struct {
		t          GateType
		inverting  bool
		unate      bool
		hasCtrl    bool
		ctrlVal    bool
		minF, maxF int
	}{
		{And, false, true, true, false, 2, -1},
		{Nand, true, true, true, false, 2, -1},
		{Or, false, true, true, true, 2, -1},
		{Nor, true, true, true, true, 2, -1},
		{Xor, false, false, false, false, 2, -1},
		{Xnor, true, false, false, false, 2, -1},
		{Not, true, true, false, false, 1, 1},
		{Buf, false, true, false, false, 1, 1},
		{Input, false, true, false, false, 0, 0},
	}
	for _, tc := range cases {
		if tc.t.Inverting() != tc.inverting {
			t.Errorf("%v Inverting = %v", tc.t, tc.t.Inverting())
		}
		if tc.t.Unate() != tc.unate {
			t.Errorf("%v Unate = %v", tc.t, tc.t.Unate())
		}
		v, ok := tc.t.ControllingValue()
		if ok != tc.hasCtrl || (ok && v != tc.ctrlVal) {
			t.Errorf("%v ControllingValue = %v,%v", tc.t, v, ok)
		}
		if tc.t.MinFanin() != tc.minF || tc.t.MaxFanin() != tc.maxF {
			t.Errorf("%v fanin bounds = %d,%d", tc.t, tc.t.MinFanin(), tc.t.MaxFanin())
		}
	}
}

func TestGateTypeEval(t *testing.T) {
	tt := []struct {
		t    GateType
		in   []bool
		want bool
	}{
		{Buf, []bool{true}, true},
		{Not, []bool{true}, false},
		{And, []bool{true, true, true}, true},
		{And, []bool{true, false, true}, false},
		{Nand, []bool{true, true}, false},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Xor, []bool{true, true, true}, true},
		{Xor, []bool{true, true}, false},
		{Xnor, []bool{true, false}, false},
	}
	for _, tc := range tt {
		if got := tc.t.Eval(tc.in); got != tc.want {
			t.Errorf("%v.Eval(%v) = %v, want %v", tc.t, tc.in, got, tc.want)
		}
		// EvalWords must agree bitwise with Eval on replicated inputs.
		words := make([]uint64, len(tc.in))
		for i, b := range tc.in {
			if b {
				words[i] = ^uint64(0)
			}
		}
		w := tc.t.EvalWords(words)
		if (w == ^uint64(0)) != tc.want || (w == 0) == tc.want {
			t.Errorf("%v.EvalWords(%v) = %x, disagrees with Eval", tc.t, tc.in, w)
		}
	}
}
