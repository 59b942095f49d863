package bench_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/netlist"
)

// generatorSpecs names one circuit of every cli.Generate family.
var generatorSpecs = []string{
	"c17", "tree:seed=3,leaves=40", "dag:seed=2,gates=120", "cone:width=9",
	"parity:width=9", "rca:width=4", "cmp:width=4", "decoder:bits=3",
	"mul:width=3", "rpr:seed=4,cones=2,width=8,glue=20", "bshift:width=8", "alu:width=3",
}

// keywordAssignment reports whether src holds a line that starts with
// INPUT or OUTPUT, is not followed by "(", and holds an "=": the
// reference refuses such a line as a malformed declaration, and the
// parser reads it as a gate.
func keywordAssignment(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		for _, kw := range []string{"INPUT", "OUTPUT"} {
			if len(line) >= len(kw) && strings.EqualFold(line[:len(kw)], kw) &&
				!strings.HasPrefix(strings.TrimSpace(line[len(kw):]), "(") && strings.Contains(line, "=") {
				return true
			}
		}
	}
	return false
}

// matchReference parses src with the reference and with both entry
// points of the package, and fails unless all three give the same
// circuit or the same error text. A keyword assignment is the one
// allowed difference: the reference must refuse it.
func matchReference(t *testing.T, src string) {
	t.Helper()
	want, wantErr := referenceParse(strings.NewReader(src), "d")
	if keywordAssignment(src) {
		if wantErr == nil {
			t.Fatalf("reference accepted a keyword assignment:\n%s", src)
		}
		return
	}
	got, err := bench.ParseString(src, "d")
	viaReader, readerErr := bench.Parse(strings.NewReader(src), "d")
	if errText(err) != errText(wantErr) || errText(readerErr) != errText(wantErr) {
		t.Fatalf("ParseString error %q, Parse error %q, reference %q\n%s", errText(err), errText(readerErr), errText(wantErr), src)
	}
	if wantErr != nil {
		return
	}
	sameCircuit(t, got, want)
	sameCircuit(t, viaReader, want)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameCircuit fails unless got and want agree on every gate's ID, name,
// type, fanin and fanout, on the input and output lists, on the
// topological order, and on their .bench text, which must also be what
// the reference writer emits, and unless got passes Validate, which
// serve no longer runs on parsed circuits.
func sameCircuit(t *testing.T, got, want *netlist.Circuit) {
	t.Helper()
	if got.NumGates() != want.NumGates() {
		t.Fatalf("%d gates, reference %d", got.NumGates(), want.NumGates())
	}
	for id := 0; id < want.NumGates(); id++ {
		g, w := got.Gate(id), want.Gate(id)
		if g.Name != w.Name || g.Type != w.Type || !slices.Equal(g.Fanin, w.Fanin) ||
			!slices.Equal(got.Fanout(id), want.Fanout(id)) {
			t.Fatalf("gate %d: %+v fanout %v, reference %+v fanout %v", id, g, got.Fanout(id), w, want.Fanout(id))
		}
		if byName, ok := got.GateByName(w.Name); !ok || byName != id {
			t.Fatalf("GateByName(%q) = %d, %v, want %d", w.Name, byName, ok, id)
		}
	}
	if !slices.Equal(got.Inputs(), want.Inputs()) || !slices.Equal(got.Outputs(), want.Outputs()) ||
		!slices.Equal(got.TopoOrder(), want.TopoOrder()) {
		t.Fatalf("inputs %v outputs %v order %v, reference %v %v %v",
			got.Inputs(), got.Outputs(), got.TopoOrder(), want.Inputs(), want.Outputs(), want.TopoOrder())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	var gotText, wantText, refText bytes.Buffer
	if err := bench.Write(&gotText, got); err != nil {
		t.Fatal(err)
	}
	if err := bench.Write(&wantText, want); err != nil {
		t.Fatal(err)
	}
	if err := referenceWrite(&refText, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotText.Bytes(), wantText.Bytes()) || !bytes.Equal(wantText.Bytes(), refText.Bytes()) {
		t.Fatalf("Write gives\n%s\nfor the parsed circuit,\n%s\nfor the reference's, and the reference writer\n%s",
			gotText.Bytes(), wantText.Bytes(), refText.Bytes())
	}
	if appended := bench.Append([]byte("prefix"), got); string(appended) != "prefix"+gotText.String() {
		t.Fatalf("Append after a prefix gives\n%s", appended)
	}
}

// perturbations rewrites a well-formed netlist in the ways real files
// differ from the canonical text, each of which must parse the same.
var perturbations = map[string]func(src string, rng *rand.Rand) string{
	"shuffled": func(src string, rng *rand.Rand) string {
		// Gate lines in random order: forward references everywhere.
		var decls, gates []string
		for _, line := range strings.Split(src, "\n") {
			if strings.Contains(line, "=") {
				gates = append(gates, line)
			} else {
				decls = append(decls, line)
			}
		}
		rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
		return strings.Join(append(gates, decls...), "\n")
	},
	"crlf": func(src string, _ *rand.Rand) string { return strings.ReplaceAll(src, "\n", "\r\n") },
	"comments": func(src string, _ *rand.Rand) string {
		return strings.ReplaceAll(src, ")\n", ") # trailing, comment = (x)\n#\n\n")
	},
	"mixed-case": func(src string, rng *rand.Rand) string {
		lines := strings.Split(src, "\n")
		for i, line := range lines {
			for _, kw := range []string{"INPUT(", "OUTPUT(", "NAND(", "AND(", "NOT(", "XOR(", "BUFF("} {
				if rng.Intn(2) == 0 {
					line = strings.Replace(line, kw, strings.ToLower(kw[:2])+kw[2:], 1)
				}
			}
			lines[i] = line
		}
		return strings.Join(lines, "\n")
	},
	"blanks": func(src string, _ *rand.Rand) string {
		r := strings.NewReplacer("(", " \t( ", ",", " ,\t", ")", " ) ", "=", "\t=  ", "\n", " \n\t")
		return r.Replace(src)
	},
}

// mutants breaks a netlist in n seeded ways: structural edits that
// reach every error the parser reports, and byte edits from the
// characters its syntax turns on.
func mutants(src string, n int, rng *rand.Rand) []string {
	lines := strings.Split(src, "\n")
	pick := func() int { return rng.Intn(len(lines)) }
	edit := func(f func(ls []string) []string) string {
		return strings.Join(f(slices.Clone(lines)), "\n")
	}
	out := []string{
		edit(func(ls []string) []string { i := pick(); return slices.Delete(ls, i, i+1) }),
		edit(func(ls []string) []string { i := pick(); return slices.Insert(ls, i, ls[pick()]) }),
		edit(func(ls []string) []string { return append(ls, "OUTPUT(ghost)") }),
		edit(func(ls []string) []string { return append(ls, "zz = FROB(ghost, "+ls[pick()]+")") }),
		edit(func(ls []string) []string { return append(ls, "INPUT("+strings.TrimSpace(ls[pick()])+")") }),
		edit(func(ls []string) []string {
			// Feed a gate from an inverter of itself.
			for _, i := range rng.Perm(len(ls)) {
				if name, _, ok := strings.Cut(ls[i], " = "); ok {
					ls[i] = strings.Replace(ls[i], "(", "(loop, ", 1)
					return append(ls, "loop = NOT("+name+")")
				}
			}
			return ls
		}),
		"# nothing but a comment\n",
		"INPUT(a)\nz = NOT(a)\n",
	}
	const syntax = "(),=# \t\nINPUTOTinputoutNAD"
	for len(out) < n {
		b := []byte(src)
		for k := 1 + rng.Intn(3); k > 0 && len(b) > 0; k-- {
			i := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0:
				b = slices.Delete(b, i, i+1)
			case 1:
				b = slices.Insert(b, i, syntax[rng.Intn(len(syntax))])
			default:
				b[i] = syntax[rng.Intn(len(syntax))]
			}
		}
		out = append(out, string(b))
	}
	return out
}

// edgeCases are the shapes neither the generators nor the mutants are
// likely to produce.
var edgeCases = map[string]string{
	"multi-pin shorthand": "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(b, a)\nz = BUFF(a, b, a)\n",
	"one-pin shorthand":   "INPUT(a)\nOUTPUT(w)\nOUTPUT(x)\nw = XOR(a)\nx = XNOR(w)\n",
	"repeated pins":       "INPUT(a)\nOUTPUT(z)\nz = AND(a, a, a)\n",
	"repeated outputs":    "INPUT(a)\nOUTPUT(z)\nOUTPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
	"inputs last":         "OUTPUT(z)\nz = OR(m, b)\nm = NOT(a)\nINPUT(b)\nINPUT(a)\n",
	"self loop":           "INPUT(a)\nOUTPUT(x)\nx = AND(x, a)\n",
	"late duplicate":      "INPUT(a)\nOUTPUT(x)\nx = NOT(y)\ny = NOT(a)\nx = BUFF(a)\n",
	"gate shadows input":  "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\na = NOT(z)\n",
	"folded mnemonic":     "INPUT(a)\nOUTPUT(z)\nz = \u0131nv(a)\n",
	"unknown late":        "INPUT(a)\nOUTPUT(z)\nz = AND(y, a)\ny = FROB(a, a)\n",
	"no outputs":          "INPUT(a)\nz = NOT(a)\n",
	"empty":               "",
	"odd names":           "INPUT(a(b)\nOUTPUT(c=d)\nc=d = AND(a(b, a(b)\n",
	"no newline at end":   "INPUT(a)\nOUTPUT(z)\nz = NOT(a)",
}

// differentialInputs is the table the parser is held to the reference
// on: every testdata netlist, every generator family written with
// Write, perturbations of each, malformed mutants of each, and the edge
// cases.
func differentialInputs(t *testing.T) map[string]string {
	t.Helper()
	inputs := map[string]string{}
	for name, src := range edgeCases {
		inputs["edge "+name] = src
	}
	err := filepath.WalkDir(filepath.Join("..", "..", "testdata"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".bench" {
			return err
		}
		b, err := os.ReadFile(path)
		inputs[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for _, spec := range generatorSpecs {
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := bench.Write(&b, c); err != nil {
			t.Fatal(err)
		}
		inputs[spec] = b.String()
	}
	bases := make([]string, 0, len(inputs))
	for name := range inputs {
		if !strings.HasPrefix(name, "edge ") {
			bases = append(bases, name)
		}
	}
	slices.Sort(bases)
	perturbed := make([]string, 0, len(perturbations))
	for name := range perturbations {
		perturbed = append(perturbed, name)
	}
	slices.Sort(perturbed)
	for _, base := range bases {
		src := inputs[base]
		for _, p := range perturbed {
			inputs[base+" "+p] = perturbations[p](src, rng)
		}
		all := src
		for _, p := range perturbed {
			all = perturbations[p](all, rng)
		}
		inputs[base+" all"] = all
		for i, m := range mutants(src, 20, rng) {
			inputs[fmt.Sprintf("%s mutant %d", base, i)] = m
		}
	}
	return inputs
}

// TestParseMatchesReference holds the single-pass parser to the
// scanner-and-Builder reference on the differential table.
func TestParseMatchesReference(t *testing.T) {
	inputs := differentialInputs(t)
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	slices.Sort(names)
	accepted := 0
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			matchReference(t, inputs[name])
		})
		if _, err := referenceParse(strings.NewReader(inputs[name]), "d"); err == nil {
			accepted++
		}
	}
	// Both halves of the table must be populated: circuits to compare
	// and errors to compare.
	if accepted < len(names)/8 || accepted > len(names)*7/8 {
		t.Fatalf("reference accepted %d of %d inputs", accepted, len(names))
	}
	t.Logf("reference accepted %d of %d inputs", accepted, len(names))
}

// TestParseMatchesReferenceAsSymbolTableGrows: text whose short lines
// name more symbols than the parser's line estimate sized its hash
// table for, so that the table doubles mid-parse, parses as the
// reference parses it, and so does a single gate line with thousands
// of undefined fanins, one of them repeated after the growth.
func TestParseMatchesReferenceAsSymbolTableGrows(t *testing.T) {
	var b strings.Builder
	names := make([]string, 0, 1100)
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	for i := 0; len(names) < cap(names); i++ {
		names = append(names, digits[i/36:i/36+1]+digits[i%36:i%36+1])
	}
	for _, n := range names {
		fmt.Fprintf(&b, "INPUT(%s)\n", n)
	}
	b.WriteString("OUTPUT(z)\nz=AND(" + strings.Join(names[len(names)-3:], ",") + ")\n")
	matchReference(t, b.String())

	fanins := make([]string, 3000)
	for i := range fanins {
		fanins[i] = fmt.Sprint("u", i)
	}
	matchReference(t, "INPUT(a)\nOUTPUT(z)\nz = AND(a, "+strings.Join(fanins, ", ")+", u7, a)\n")
}

// FuzzParseMatchesReference holds the parser to the reference on
// arbitrary text.
func FuzzParseMatchesReference(f *testing.F) {
	for _, spec := range []string{"c17", "tree:seed=3,leaves=6", "rca:width=2"} {
		c, err := cli.Generate(spec)
		if err != nil {
			f.Fatal(err)
		}
		var b strings.Builder
		if err := bench.Write(&b, c); err != nil {
			f.Fatal(err)
		}
		f.Add(b.String())
	}
	f.Add("INPUT(a)\nOUTPUT(z)\nz = NOT(m)\nm = AND(a, n)\nn = NOT(a)\n")
	f.Add("input(a)\r\nOUTPUT( z ) # out\nz = nand(a, a, a)\nINPUT(b)\n")
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(a, y)\ny = NOT(z)\n")
	f.Add("INPUT a\nOUTPUT(z)\nz = NOT(a)\n")
	f.Add("INPUT(a)\nOUTPUT(inputx)\ninputx = NOT(a)\n")
	// Names the symbol table must tell apart: undefined ones (a fanin,
	// an output), ones defined twice (as inputs, as gates, as both),
	// forward references, and names that differ in case or by a byte.
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\nz = NOT(a)\n")
	f.Add("INPUT(a)\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
	f.Add("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n")
	f.Add("INPUT(a)\nOUTPUT(a)\na = NOT(a)\n")
	f.Add("OUTPUT(z)\nz = OR(m, n)\nn = NOT(m)\nm = AND(a, A)\nINPUT(a)\nINPUT(A)\n")
	f.Add("INPUT(ab)\nINPUT(ba)\nOUTPUT(abc)\nabc = XOR(ab, ba, a b)\n")
	f.Fuzz(matchReference)
}
