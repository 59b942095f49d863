package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// validateTestCircuit builds a small reconvergent circuit with every gate
// type represented.
func validateTestCircuit(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("val")
	a := b.Input("a")
	bb := b.Input("b")
	cc := b.Input("c")
	n1 := b.NandGate("n1", a, bb)
	n2 := b.NorGate("n2", bb, cc)
	x := b.XorGate("x", n1, n2)
	inv := b.NotGate("inv", n1)
	buf := b.BufGate("buf", inv)
	z1 := b.AndGate("z1", x, buf)
	z2 := b.XnorGate("z2", x, cc)
	z3 := b.OrGate("z3", z1, z2)
	b.MarkOutput(z3)
	b.MarkOutput(z2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidateFreshCircuit(t *testing.T) {
	if err := validateTestCircuit(t).Validate(); err != nil {
		t.Errorf("freshly built circuit must validate: %v", err)
	}
}

// TestValidateAfterTransforms re-checks the invariants on the outputs of
// every netlist rewrite: test point insertion of each kind and XOR
// expansion.
func TestValidateAfterTransforms(t *testing.T) {
	c := validateTestCircuit(t)
	n1, _ := c.GateByName("n1")
	x, _ := c.GateByName("x")
	for _, kind := range []TestPointKind{Observe, Control0, Control1, FullCut} {
		mod, err := c.InsertTestPoints([]TestPoint{{Signal: n1, Kind: kind}, {Signal: x, Kind: Observe}})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := mod.Validate(); err != nil {
			t.Errorf("after inserting %v: %v", kind, err)
		}
	}
	exp, err := c.ExpandXor()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Validate(); err != nil {
		t.Errorf("after ExpandXor: %v", err)
	}
}

// TestValidateCatchesCorruption tampers with each private invariant in
// turn and asserts Validate reports it. Each case gets a fresh circuit.
func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Circuit)
		wantSub string
	}{
		{"level", func(c *Circuit) { c.level[len(c.level)-1] += 3 }, "level"},
		{"topo-order", func(c *Circuit) {
			c.order[0], c.order[len(c.order)-1] = c.order[len(c.order)-1], c.order[0]
		}, "topo order"},
		{"topo-dup", func(c *Circuit) { c.order[1] = c.order[0] }, "twice"},
		{"fanout-missing", func(c *Circuit) {
			for id := range c.gates {
				if out := c.Fanout(id); len(out) > 0 {
					setRun(c, id, out[:len(out)-1])
					break
				}
			}
		}, "fanout"},
		{"fanout-run", func(c *Circuit) { c.fanoutStart[1] = c.fanoutStart[2] + 1 }, "fanout run"},
		{"fanout-span", func(c *Circuit) { c.fanoutStart[len(c.gates)]-- }, "fanout offsets"},
		{"name-index", func(c *Circuit) {
			byName := c.nameIndex()
			byName[c.gates[0].Name] = 1
			byName[c.gates[1].Name] = 0
		}, "name index"},
		{"output-flag", func(c *Circuit) {
			for id := range c.isOutput {
				if !c.isOutput[id] {
					c.isOutput[id] = true
					break
				}
			}
		}, "output"},
		{"output-list", func(c *Circuit) { c.outputs = append(c.outputs, c.outputs[0]) }, "output"},
		{"input-list", func(c *Circuit) { c.inputs = c.inputs[:len(c.inputs)-1] }, "input"},
		{"gate-name", func(c *Circuit) { c.gates[2].Name = "" }, "name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validateTestCircuit(t)
			tc.corrupt(c)
			err := c.Validate()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// setRun replaces signal f's fanout run with run, moving the start of
// every later run by the change in length.
func setRun(c *Circuit, f int, run []int) {
	lo, hi := int(c.fanoutStart[f]), int(c.fanoutStart[f+1])
	c.fanout = slices.Replace(c.fanout, lo, hi, run...)
	for g := f + 1; g < len(c.fanoutStart); g++ {
		c.fanoutStart[g] += int32(len(run) - (hi - lo))
	}
}

// transposeError is the fanin/fanout symmetry check as it was first
// written, over a transpose rebuilt in per-signal slices: the reference
// for Validate's counting walk.
func transposeError(c *Circuit) string {
	want := make([][]int, len(c.gates))
	for id, g := range c.gates {
		for _, f := range g.Fanin {
			want[f] = append(want[f], id)
		}
	}
	for id := range want {
		got := c.Fanout(id)
		if len(want[id]) != len(got) {
			return fmt.Sprintf("netlist: signal %d: fanout count %d, transpose of fanin gives %d",
				id, len(got), len(want[id]))
		}
		for i, s := range want[id] {
			if got[i] != s {
				return fmt.Sprintf("netlist: signal %d: fanout entry %d is %d, transpose of fanin gives %d",
					id, i, got[i], s)
			}
		}
	}
	return ""
}

// TestValidateFanoutMatchesTranspose corrupts the flat fanout array of a
// random reconvergent circuit in one to three places at a time, changing
// entries and moving run boundaries, and checks that Validate reports
// exactly what the transpose reference reports: the same signal, entry
// and message.
func TestValidateFanoutMatchesTranspose(t *testing.T) {
	build := func() *Circuit {
		rng := rand.New(rand.NewSource(5))
		b := NewBuilder("fan")
		for i := 0; i < 8; i++ {
			b.Input(fmt.Sprint("i", i))
		}
		for i := 0; i < 60; i++ {
			n := b.NumGates()
			b.AndGate("", rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		b.MarkOutput(b.NumGates() - 1)
		b.MarkOutput(b.NumGates() - 7)
		return b.MustBuild()
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		c := build()
		for k := rng.Intn(3); k >= 0; k-- {
			f := rng.Intn(len(c.gates))
			out := slices.Clone(c.Fanout(f))
			switch op := rng.Intn(4); {
			case op == 0 && len(out) > 0:
				out[rng.Intn(len(out))] = rng.Intn(len(c.gates))
			case op == 1 && len(out) > 0:
				out = out[:rng.Intn(len(out))]
			case op == 2 && len(out) > 1:
				i, j := rng.Intn(len(out)), rng.Intn(len(out))
				out[i], out[j] = out[j], out[i]
			default:
				out = append(out, rng.Intn(len(c.gates)))
			}
			setRun(c, f, out)
		}
		want := transposeError(c)
		got := ""
		if err := c.Validate(); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Fatalf("trial %d: Validate says %q, transpose reference %q", trial, got, want)
		}
	}
}

// TestValidateChecksNameIndex: Validate reports a name index that maps
// a gate's name to another ID, or lacks it.
func TestValidateChecksNameIndex(t *testing.T) {
	cases := []struct {
		name   string
		byName map[string]int
		want   string
	}{
		{"wrong entry", map[string]int{"a": 0, "b": 2, "z": 1}, `netlist: name index maps "b" to 2, want 1`},
		{"missing entry", map[string]int{"a": 0, "x": 1, "z": 2}, `netlist: name index maps "b" to 0, want 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gates := []Gate{{Type: Input, Name: "a"}, {Type: Input, Name: "b"}, {Type: And, Name: "z", Fanin: []int{0, 1}}}
			c, err := Assemble("idx", gates, []int{2})
			if err != nil {
				t.Fatal(err)
			}
			c.nameIndex()
			c.byName = tc.byName
			if err := c.Validate(); err == nil || err.Error() != tc.want {
				t.Errorf("Validate error %v, want %q", err, tc.want)
			}
		})
	}
}

// TestNameIndexBuiltOnFirstLookup: Assemble builds no name index, and
// the first lookups, made from several goroutines at once, build one
// index that maps every name, and Validate reports an assembled circuit
// whose names repeat.
func TestNameIndexBuiltOnFirstLookup(t *testing.T) {
	gates := []Gate{{Type: Input, Name: "a"}, {Type: Input, Name: "b"}, {Type: And, Name: "z", Fanin: []int{0, 1}}}
	c, err := Assemble("idx", gates, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if c.byName != nil {
		t.Fatal("Assemble built the name index")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id, g := range gates {
				if got, ok := c.GateByName(g.Name); !ok || got != id {
					t.Errorf("GateByName(%q) = %d, %v, want %d", g.Name, got, ok, id)
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	dup, err := Assemble("dup", []Gate{{Type: Input, Name: "a"}, {Type: Not, Name: "a", Fanin: []int{0}}}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.Validate(); err == nil || err.Error() != "netlist: name index has 1 entries for 2 gates" {
		t.Errorf("Validate of repeated names: %v", err)
	}
}
