package bench_test

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/netlist"
)

// The package's parser and writer as they stood before the single-pass
// rewrite, kept verbatim as the reference the differential tests hold
// Parse, ParseString and Write to.

type rawGate struct {
	name  string
	fn    string
	fanin []string
	line  int
}

// referenceParse is the scanner-and-Builder parser the package shipped
// before its single-pass rewrite.
func referenceParse(r io.Reader, name string) (*netlist.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var inputs, outputs []string
	var raws []rawGate
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT"):
			sig, err := parseDecl(line, "INPUT", lineNo)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, sig)
		case hasPrefixFold(line, "OUTPUT"):
			sig, err := parseDecl(line, "OUTPUT", lineNo)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, sig)
		default:
			g, err := parseAssign(line, lineNo)
			if err != nil {
				return nil, err
			}
			raws = append(raws, g)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %w", err)
	}
	return referenceAssemble(name, inputs, outputs, raws)
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

// parseDecl parses "INPUT(sig)" / "OUTPUT(sig)".
func parseDecl(line, kw string, lineNo int) (string, error) {
	rest := strings.TrimSpace(line[len(kw):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", &bench.ParseError{lineNo, fmt.Sprintf("malformed %s declaration %q", kw, line)}
	}
	sig := strings.TrimSpace(rest[1 : len(rest)-1])
	if sig == "" {
		return "", &bench.ParseError{lineNo, fmt.Sprintf("empty signal in %s declaration", kw)}
	}
	return sig, nil
}

// parseAssign parses "name = FN(a, b, ...)".
func parseAssign(line string, lineNo int) (rawGate, error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return rawGate{}, &bench.ParseError{lineNo, fmt.Sprintf("expected assignment, got %q", line)}
	}
	name := strings.TrimSpace(line[:eq])
	if name == "" {
		return rawGate{}, &bench.ParseError{lineNo, "empty signal name on left-hand side"}
	}
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return rawGate{}, &bench.ParseError{lineNo, fmt.Sprintf("malformed gate expression %q", rhs)}
	}
	fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	var fanin []string
	for _, part := range strings.Split(rhs[open+1:len(rhs)-1], ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return rawGate{}, &bench.ParseError{lineNo, "empty fanin signal"}
		}
		fanin = append(fanin, part)
	}
	if len(fanin) == 0 {
		return rawGate{}, &bench.ParseError{lineNo, "gate with no fanin"}
	}
	return rawGate{name: name, fn: fn, fanin: fanin, line: lineNo}, nil
}

// gateType maps a mnemonic and arity onto a netlist gate type, applying
// the single-input shorthand rules.
func gateType(fn string, arity, lineNo int) (netlist.GateType, error) {
	switch fn {
	case "BUF", "BUFF":
		return netlist.Buf, nil
	case "NOT", "INV":
		return netlist.Not, nil
	case "AND":
		if arity == 1 {
			return netlist.Buf, nil
		}
		return netlist.And, nil
	case "NAND":
		if arity == 1 {
			return netlist.Not, nil
		}
		return netlist.Nand, nil
	case "OR":
		if arity == 1 {
			return netlist.Buf, nil
		}
		return netlist.Or, nil
	case "NOR":
		if arity == 1 {
			return netlist.Not, nil
		}
		return netlist.Nor, nil
	case "XOR":
		if arity == 1 {
			return netlist.Buf, nil
		}
		return netlist.Xor, nil
	case "XNOR":
		if arity == 1 {
			return netlist.Not, nil
		}
		return netlist.Xnor, nil
	}
	return 0, &bench.ParseError{lineNo, fmt.Sprintf("unknown gate function %q", fn)}
}

// referenceAssemble resolves names with a worklist and builds the
// circuit through netlist.Builder.
func referenceAssemble(name string, inputs, outputs []string, raws []rawGate) (*netlist.Circuit, error) {
	b := netlist.NewBuilder(name)
	ids := make(map[string]int, len(inputs)+len(raws))
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("bench: duplicate INPUT declaration %q", in)
		}
		ids[in] = b.Input(in)
	}
	// Gates may be declared in any order; resolve with a worklist keyed on
	// how many fanins are already defined.
	pending := make([]rawGate, len(raws))
	copy(pending, raws)
	for len(pending) > 0 {
		progressed := false
		remaining := pending[:0]
		for _, g := range pending {
			ready := true
			for _, f := range g.fanin {
				if _, ok := ids[f]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				remaining = append(remaining, g)
				continue
			}
			t, err := gateType(g.fn, len(g.fanin), g.line)
			if err != nil {
				return nil, err
			}
			fanin := make([]int, 0, len(g.fanin))
			// Single-input shorthand keeps only the first fanin.
			n := len(g.fanin)
			if t == netlist.Buf || t == netlist.Not {
				n = 1
			}
			for _, f := range g.fanin[:n] {
				fanin = append(fanin, ids[f])
			}
			if _, dup := ids[g.name]; dup {
				return nil, &bench.ParseError{g.line, fmt.Sprintf("signal %q defined twice", g.name)}
			}
			ids[g.name] = b.Add(t, g.name, fanin...)
			progressed = true
		}
		pending = remaining
		if !progressed {
			// Either an undefined signal or a cycle; report the first.
			g := pending[0]
			for _, f := range g.fanin {
				if _, ok := ids[f]; !ok {
					return nil, &bench.ParseError{g.line, fmt.Sprintf("undefined signal %q (or combinational loop)", f)}
				}
			}
			return nil, &bench.ParseError{g.line, "combinational loop"}
		}
	}
	for _, o := range outputs {
		id, ok := ids[o]
		if !ok {
			return nil, fmt.Errorf("bench: OUTPUT %q has no driver", o)
		}
		b.MarkOutput(id)
	}
	return b.Build()
}

// referenceWrite is the fmt-based writer the package shipped before
// Append.
func referenceWrite(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n# %d inputs, %d outputs, %d gates\n",
		c.Name(), c.NumInputs(), c.NumOutputs(), c.NumGates()-c.NumInputs())
	for _, in := range c.Inputs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.GateName(in))
	}
	outs := append([]int(nil), c.Outputs()...)
	sort.Ints(outs)
	for _, o := range outs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.GateName(o))
	}
	bw.WriteByte('\n')
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.GateName(f)
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, mnemonic(g.Type), strings.Join(names, ", "))
	}
	return bw.Flush()
}

func mnemonic(t netlist.GateType) string {
	if t == netlist.Buf {
		return "BUFF"
	}
	return t.String()
}
