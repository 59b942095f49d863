package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netlist"
)

const c17Text = `
# c17 ISCAS'85 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestParseC17(t *testing.T) {
	c, err := ParseString(c17Text, "c17")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if c.NumInputs() != 5 || c.NumOutputs() != 2 || c.NumGates() != 11 {
		t.Errorf("got %v", c)
	}
	g16, ok := c.GateByName("16")
	if !ok || c.Type(g16) != netlist.Nand {
		t.Errorf("gate 16 missing or wrong type")
	}
}

func TestParseForwardReferences(t *testing.T) {
	// Gates defined before their fanins (legal in .bench).
	text := `
INPUT(a)
OUTPUT(z)
z = NOT(m)
m = AND(a, n)
n = NOT(a)
`
	c, err := ParseString(text, "fwd")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if c.NumGates() != 4 {
		t.Errorf("gates = %d, want 4", c.NumGates())
	}
}

func TestParseSingleInputShorthand(t *testing.T) {
	text := `
INPUT(a)
OUTPUT(w)
OUTPUT(x)
OUTPUT(y)
OUTPUT(z)
w = AND(a)
x = NAND(a)
y = OR(a)
z = NOR(a)
`
	c, err := ParseString(text, "sh")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	w, _ := c.GateByName("w")
	x, _ := c.GateByName("x")
	y, _ := c.GateByName("y")
	z, _ := c.GateByName("z")
	if c.Type(w) != netlist.Buf || c.Type(y) != netlist.Buf {
		t.Error("1-input AND/OR must read as BUF")
	}
	if c.Type(x) != netlist.Not || c.Type(z) != netlist.Not {
		t.Error("1-input NAND/NOR must read as NOT")
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	text := "input(a)\ninput(b)\noutput(z)\nz = nand(a, b)\n"
	c, err := ParseString(text, "ci")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	z, _ := c.GateByName("z")
	if c.Type(z) != netlist.Nand {
		t.Errorf("type = %v", c.Type(z))
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown gate":     "INPUT(a)\nOUTPUT(z)\nz = FROB(a, a)\n",
		"undefined signal": "INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n",
		"undriven output":  "INPUT(a)\nOUTPUT(z)\n",
		"double define":    "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\nz = OR(a, b)\n",
		"malformed decl":   "INPUT a\nOUTPUT(z)\nz = NOT(a)\n",
		"malformed rhs":    "INPUT(a)\nOUTPUT(z)\nz = NOT a\n",
		"empty fanin":      "INPUT(a)\nOUTPUT(z)\nz = AND(a, )\n",
		"loop":             "INPUT(a)\nOUTPUT(z)\nz = AND(a, y)\ny = NOT(z)\n",
		"duplicate input":  "INPUT(a)\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
	}
	for name, text := range cases {
		if _, err := ParseString(text, name); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	c, err := ParseString(c17Text, "c17")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatalf("write: %v", err)
	}
	c2, err := ParseString(sb.String(), "c17")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if c2.NumGates() != c.NumGates() || c2.NumInputs() != c.NumInputs() || c2.NumOutputs() != c.NumOutputs() {
		t.Errorf("round trip mismatch: %v vs %v", c2, c)
	}
	// Functional equivalence across all 32 vectors.
	for v := 0; v < 32; v++ {
		for i, o := range c.Outputs() {
			if evalOutput(c, v, o) != evalOutput(c2, v, c2.Outputs()[i]) {
				t.Fatalf("vector %d output %d differs after round trip", v, i)
			}
		}
	}
}

func evalOutput(c *netlist.Circuit, vec, out int) bool {
	vals := make([]bool, c.NumGates())
	for i, in := range c.Inputs() {
		vals[in] = vec>>i&1 == 1
	}
	buf := make([]bool, 0, 8)
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		buf = buf[:0]
		for _, f := range g.Fanin {
			buf = append(buf, vals[f])
		}
		vals[id] = g.Type.Eval(buf)
	}
	return vals[out]
}

func TestParseTestdataFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no testdata .bench files")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "DFF") {
			continue // sequential benches belong to internal/scan
		}
		c, err := ParseString(string(data), filepath.Base(f))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if c.NumGates() == 0 {
			t.Errorf("%s: empty circuit", f)
		}
	}
}

// TestParseKeywordNamedGates: a gate whose name begins with INPUT or
// OUTPUT, in any case, is an assignment and round-trips through Write,
// while a keyword followed by "(" or a line without "=" stays a
// declaration.
func TestParseKeywordNamedGates(t *testing.T) {
	cases := []struct {
		text, gate string
		typ        netlist.GateType
	}{
		{"INPUT(a)\nINPUT(b)\nOUTPUT(inputx)\ninputx = AND(a, b)\n", "inputx", netlist.And},
		{"INPUT(a)\nOUTPUT(OUTPUT_1)\nOUTPUT_1 = NOT(a)\n", "OUTPUT_1", netlist.Not},
		{"INPUT (a)\nINPUT(b)\noutput\t(Input2)\nInput2=OR(a,b)\n", "Input2", netlist.Or},
	}
	for _, tc := range cases {
		c, err := ParseString(tc.text, "kw")
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		id, ok := c.GateByName(tc.gate)
		if !ok || c.Type(id) != tc.typ || !c.IsOutput(id) || c.NumInputs() != c.NumGates()-1 {
			t.Fatalf("%q: gate %q missing, mistyped or not an output: %v", tc.text, tc.gate, c)
		}
		var sb strings.Builder
		if err := Write(&sb, c); err != nil {
			t.Fatal(err)
		}
		c2, err := ParseString(sb.String(), "kw")
		if err != nil {
			t.Fatalf("reparse of\n%s: %v", sb.String(), err)
		}
		var again strings.Builder
		if err := Write(&again, c2); err != nil {
			t.Fatal(err)
		}
		if again.String() != sb.String() {
			t.Fatalf("round trip changed the text:\n%s\nvs\n%s", sb.String(), again.String())
		}
	}
	for text, want := range map[string]string{
		"INPUT a\nOUTPUT(z)\nz = NOT(a)\n":      "bench: line 1: malformed INPUT declaration \"INPUT a\"",
		"INPUT(a)\noutput z\nz = NOT(a)\n":      "bench: line 2: malformed OUTPUT declaration \"output z\"",
		"INPUT(a) = b\nOUTPUT(z)\nz = NOT(a)\n": "bench: line 1: malformed INPUT declaration \"INPUT(a) = b\"",
	} {
		if _, err := ParseString(text, "kw"); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", text, err, want)
		}
	}
}
