// Package bench reads and writes combinational circuits in the ISCAS'85
// ".bench" netlist format used by the classic DFT benchmark suites:
//
//	# comment
//	INPUT(a)
//	OUTPUT(z)
//	n1 = NAND(a, b)
//	z  = NOT(n1)
//
// Gate mnemonics are case-insensitive. One-input AND/OR gates are read as
// buffers; one-input NAND/NOR as inverters (some published netlists use
// this shorthand). A line that starts with INPUT or OUTPUT is an
// assignment, not a declaration, when the keyword is not followed by
// "(" and the line holds an "=", so gates may be named "inputx" or
// "OUTPUT_1".
//
// The parser scans the text once and slices every name out of it in
// place: the gate names of a parsed circuit alias the input text, so the
// circuit keeps the string given to ParseString (or Parse's copy of its
// input) alive.
package bench

import (
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// ParseError describes a syntax or structural error in a .bench stream.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("bench: line %d: %s", e.Line, e.Msg) }

// Parse reads a .bench netlist whole and returns the validated circuit.
// The name is used as the circuit name.
func Parse(r io.Reader, name string) (*netlist.Circuit, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("bench: read: %w", err)
	}
	return ParseString(string(src), name)
}

// ParseString is Parse over an in-memory netlist. The circuit's gate
// names are substrings of src.
func ParseString(src, name string) (*netlist.Circuit, error) {
	p := newParser(src)
	if err := p.scan(src); err != nil {
		return nil, err
	}
	return p.assemble(name)
}

// Record kinds: one record per non-blank line.
const (
	inputDecl = iota
	outputDecl
	assignment
)

// unknownGate is the gate type of an assignment whose mnemonic no gate
// type matches; assembly reports it once the gate's fanins are placed.
const unknownGate netlist.GateType = 0xff

// record is one scanned line. sym is the declared or assigned signal;
// an assignment's fanin symbols are pins[pin0:pin1] and typ is its gate
// type, the single-input shorthand applied.
type record struct {
	kind       uint8
	typ        netlist.GateType
	line       int32
	sym        int32
	pin0, pin1 int32
}

// parser holds the scanned netlist. Each distinct name is a symbol,
// numbered on first sight: names holds its first spelling, and table
// is an open-addressing hash table of symbol+1 (0 marks a free slot),
// probed linearly from the name's hash under seed, which is drawn per
// parse so that no text can be written to collide on every parse.
type parser struct {
	src     string
	seed    maphash.Seed
	table   []int32
	names   []string
	records []record
	pins    []int32
	outputs int // OUTPUT declarations, to size the output list
}

// newParser sizes every table from src's line and comma counts, which
// bound the records, the defined names and the fanin pins. The line
// count is capped in proportion to src's length, so that blank or
// comment lines cannot reserve table entries that no text fills: a
// netlist line takes 12 bytes or more in all but the smallest circuits,
// and denser text grows the tables as it goes.
func newParser(src string) *parser {
	lines := min(strings.Count(src, "\n")+1, len(src)/12+1)
	return &parser{
		src:     src,
		seed:    maphash.MakeSeed(),
		table:   make([]int32, tableSize(lines)),
		names:   make([]string, 0, lines),
		records: make([]record, 0, lines),
		pins:    make([]int32, 0, lines+strings.Count(src, ",")),
	}
}

// tableSize returns the power of two, at least 16, that holds n symbols
// at most half full.
func tableSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// sym returns name's symbol, numbering it on first sight.
func (p *parser) sym(name string) int32 {
	mask := uint64(len(p.table) - 1)
	for i := maphash.String(p.seed, name) & mask; ; i = (i + 1) & mask {
		s := p.table[i]
		if s == 0 {
			s = int32(len(p.names))
			p.table[i] = s + 1
			p.names = append(p.names, name)
			if 2*len(p.names) > len(p.table) {
				p.grow()
			}
			return s
		}
		if p.names[s-1] == name {
			return s - 1
		}
	}
}

// grow doubles the hash table and reinserts every symbol.
func (p *parser) grow() {
	p.table = make([]int32, 2*len(p.table))
	mask := uint64(len(p.table) - 1)
	for s, name := range p.names {
		i := maphash.String(p.seed, name) & mask
		for p.table[i] != 0 {
			i = (i + 1) & mask
		}
		p.table[i] = int32(s) + 1
	}
}

// scan splits src into lines in place and records each one, stopping at
// the first malformed line.
func (p *parser) scan(src string) error {
	lineNo := 0
	for len(src) > 0 {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		lineNo++
		line = strings.TrimSpace(line)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		var err error
		switch {
		case isDecl(line, "INPUT"):
			err = p.decl(line, "INPUT", inputDecl, lineNo)
		case isDecl(line, "OUTPUT"):
			err = p.decl(line, "OUTPUT", outputDecl, lineNo)
		default:
			err = p.assign(line, lineNo)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// isDecl reports whether line declares kw: it starts with the keyword in
// any case, and the keyword is followed by "(" or the line holds no "=".
func isDecl(line, kw string) bool {
	if len(line) < len(kw) || !strings.EqualFold(line[:len(kw)], kw) {
		return false
	}
	return strings.HasPrefix(strings.TrimSpace(line[len(kw):]), "(") || strings.IndexByte(line, '=') < 0
}

// decl records "INPUT(sig)" / "OUTPUT(sig)".
func (p *parser) decl(line, kw string, kind uint8, lineNo int) error {
	rest := strings.TrimSpace(line[len(kw):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return &ParseError{lineNo, fmt.Sprintf("malformed %s declaration %q", kw, line)}
	}
	sig := strings.TrimSpace(rest[1 : len(rest)-1])
	if sig == "" {
		return &ParseError{lineNo, fmt.Sprintf("empty signal in %s declaration", kw)}
	}
	if kind == outputDecl {
		p.outputs++
	}
	p.records = append(p.records, record{kind: kind, line: int32(lineNo), sym: p.sym(sig)})
	return nil
}

// assign records "name = FN(a, b, ...)".
func (p *parser) assign(line string, lineNo int) error {
	name, fn, args, err := splitAssignment(line, lineNo)
	if err != nil {
		return err
	}
	pin0 := int32(len(p.pins))
	for more := true; more; {
		var part string
		part, args, more = strings.Cut(args, ",")
		if part = strings.TrimSpace(part); part == "" {
			return &ParseError{lineNo, "empty fanin signal"}
		}
		p.pins = append(p.pins, p.sym(part))
	}
	p.records = append(p.records, record{
		kind: assignment, typ: gateType(strings.ToUpper(fn), len(p.pins)-int(pin0)), line: int32(lineNo),
		sym: p.sym(name), pin0: pin0, pin1: int32(len(p.pins)),
	})
	return nil
}

// splitAssignment splits a trimmed assignment line into the assigned
// name, the mnemonic and the text between the parentheses.
func splitAssignment(line string, lineNo int) (name, fn, args string, err error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return "", "", "", &ParseError{lineNo, fmt.Sprintf("expected assignment, got %q", line)}
	}
	name = strings.TrimSpace(line[:eq])
	if name == "" {
		return "", "", "", &ParseError{lineNo, "empty signal name on left-hand side"}
	}
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return "", "", "", &ParseError{lineNo, fmt.Sprintf("malformed gate expression %q", rhs)}
	}
	return name, strings.TrimSpace(rhs[:open]), rhs[open+1 : len(rhs)-1], nil
}

// unknownGateError reports the unknown mnemonic of the assignment on
// line lineNo, which scan accepted, so the line is found again.
func (p *parser) unknownGateError(lineNo int) error {
	src := p.src
	for i := 1; i < lineNo; i++ {
		src = src[strings.IndexByte(src, '\n')+1:]
	}
	line, _, _ := strings.Cut(src, "\n")
	line, _, _ = strings.Cut(line, "#")
	_, fn, _, _ := splitAssignment(strings.TrimSpace(line), lineNo)
	return &ParseError{lineNo, fmt.Sprintf("unknown gate function %q", strings.ToUpper(fn))}
}

// gateType maps a mnemonic and arity onto a netlist gate type, applying
// the single-input shorthand rules, or returns unknownGate.
func gateType(fn string, arity int) netlist.GateType {
	switch fn {
	case "BUF", "BUFF":
		return netlist.Buf
	case "NOT", "INV":
		return netlist.Not
	case "AND":
		if arity == 1 {
			return netlist.Buf
		}
		return netlist.And
	case "NAND":
		if arity == 1 {
			return netlist.Not
		}
		return netlist.Nand
	case "OR":
		if arity == 1 {
			return netlist.Buf
		}
		return netlist.Or
	case "NOR":
		if arity == 1 {
			return netlist.Not
		}
		return netlist.Nor
	case "XOR":
		if arity == 1 {
			return netlist.Buf
		}
		return netlist.Xor
	case "XNOR":
		if arity == 1 {
			return netlist.Not
		}
		return netlist.Xnor
	}
	return unknownGate
}

// assemble numbers the signals and builds the circuit. Inputs take the
// first IDs in declaration order. Gates may be declared in any order:
// passes over the gates still pending, in line order, give each gate
// the next ID once all its fanins have one.
func (p *parser) assemble(name string) (*netlist.Circuit, error) {
	gateOf := make([]int32, len(p.names)) // symbol → gate ID, -1 while undriven
	for s := range gateOf {
		gateOf[s] = -1
	}
	gates := make([]netlist.Gate, 0, len(p.names))
	for _, r := range p.records {
		if r.kind != inputDecl {
			continue
		}
		if gateOf[r.sym] >= 0 {
			return nil, fmt.Errorf("bench: duplicate INPUT declaration %q", p.names[r.sym])
		}
		gateOf[r.sym] = int32(len(gates))
		gates = append(gates, netlist.Gate{Type: netlist.Input, Name: p.names[r.sym]})
	}

	fanin := make([]int, 0, len(p.pins)) // every gate's fanin IDs, gate after gate
	// place gives r its ID if its fanins all have one, and reports
	// whether it did.
	place := func(r *record) (bool, error) {
		pins := p.pins[r.pin0:r.pin1]
		for _, s := range pins {
			if gateOf[s] < 0 {
				return false, nil
			}
		}
		t := r.typ
		if t == unknownGate {
			return false, p.unknownGateError(int(r.line))
		}
		if t == netlist.Buf || t == netlist.Not {
			pins = pins[:1] // the single-input shorthand keeps the first fanin
		}
		start := len(fanin)
		for _, s := range pins {
			fanin = append(fanin, int(gateOf[s]))
		}
		if gateOf[r.sym] >= 0 {
			return false, &ParseError{int(r.line), fmt.Sprintf("signal %q defined twice", p.names[r.sym])}
		}
		gateOf[r.sym] = int32(len(gates))
		gates = append(gates, netlist.Gate{Type: t, Name: p.names[r.sym], Fanin: fanin[start:len(fanin):len(fanin)]})
		return true, nil
	}
	pending := make([]int32, 0, len(p.records)) // assignments not yet placed, in line order
	for i, r := range p.records {
		if r.kind == assignment {
			pending = append(pending, int32(i))
		}
	}
	for len(pending) > 0 {
		remaining := pending[:0]
		for _, i := range pending {
			if ok, err := place(&p.records[i]); err != nil {
				return nil, err
			} else if !ok {
				remaining = append(remaining, i)
			}
		}
		if len(remaining) == len(pending) {
			// Either an undefined signal or a cycle; report the first.
			r := &p.records[pending[0]]
			for _, s := range p.pins[r.pin0:r.pin1] {
				if gateOf[s] < 0 {
					return nil, &ParseError{int(r.line), fmt.Sprintf("undefined signal %q (or combinational loop)", p.names[s])}
				}
			}
			return nil, &ParseError{int(r.line), "combinational loop"}
		}
		pending = remaining
	}

	outputs := make([]int, 0, p.outputs)
	for _, r := range p.records {
		if r.kind != outputDecl {
			continue
		}
		if gateOf[r.sym] < 0 {
			return nil, fmt.Errorf("bench: OUTPUT %q has no driver", p.names[r.sym])
		}
		outputs = append(outputs, int(gateOf[r.sym]))
	}
	// Every gate holds its own symbol, so the names are distinct, as
	// Assemble requires.
	return netlist.Assemble(name, gates, outputs)
}

// Write emits the circuit in .bench format. Gates appear in topological
// order so the output parses without forward references even in strict
// readers.
func Write(w io.Writer, c *netlist.Circuit) error {
	_, err := w.Write(Append(nil, c))
	return err
}

// Append appends the circuit's .bench text, exactly as Write emits it,
// to dst and returns the extended buffer.
func Append(dst []byte, c *netlist.Circuit) []byte {
	// Reserve an upper bound on the text up front. The header's fixed
	// text and three counts fit in 96 bytes. A gate's name appears at
	// most twice, in a declaration and an OUTPUT line or an assignment,
	// around at most 20 bytes of fixed text; each fanin adds its name
	// and a separator.
	size := 96 + len(c.Name())
	for id := 0; id < c.NumGates(); id++ {
		size += 2*len(c.GateName(id)) + 20
		for _, f := range c.Fanin(id) {
			size += len(c.GateName(f)) + 2
		}
	}
	dst = slices.Grow(dst, size)

	dst = append(dst, "# "...)
	dst = append(dst, c.Name()...)
	dst = append(dst, "\n# "...)
	dst = strconv.AppendInt(dst, int64(c.NumInputs()), 10)
	dst = append(dst, " inputs, "...)
	dst = strconv.AppendInt(dst, int64(c.NumOutputs()), 10)
	dst = append(dst, " outputs, "...)
	dst = strconv.AppendInt(dst, int64(c.NumGates()-c.NumInputs()), 10)
	dst = append(dst, " gates\n"...)
	for _, in := range c.Inputs() {
		dst = append(dst, "INPUT("...)
		dst = append(dst, c.GateName(in)...)
		dst = append(dst, ")\n"...)
	}
	// Outputs in ascending ID order: the output list holds each ID once.
	for id := 0; id < c.NumGates(); id++ {
		if c.IsOutput(id) {
			dst = append(dst, "OUTPUT("...)
			dst = append(dst, c.GateName(id)...)
			dst = append(dst, ")\n"...)
		}
	}
	dst = append(dst, '\n')
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		dst = append(dst, g.Name...)
		dst = append(dst, " = "...)
		dst = append(dst, mnemonic(g.Type)...)
		dst = append(dst, '(')
		for i, f := range g.Fanin {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, c.GateName(f)...)
		}
		dst = append(dst, ")\n"...)
	}
	return dst
}

func mnemonic(t netlist.GateType) string {
	if t == netlist.Buf {
		return "BUFF"
	}
	return t.String()
}
