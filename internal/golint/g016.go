package golint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// G016 streaming-discipline: the serve-handler contracts that turn
// into wire-level bugs — a panic on a wrapped ResponseWriter, a stream
// a proxy buffers forever, a second status line after an error. Three
// checks:
//
//	C1  a single-result `w.(http.Flusher)` assertion panics at runtime
//	    when middleware wraps the writer; assert with the comma-ok form
//	    or use http.NewResponseController.
//	C2  an NDJSON stream loop must flush every iteration, and must not
//	    make the flush optional: a comma-ok http.Flusher that is nil on
//	    wrapped writers degrades silently to a response the client only
//	    sees at the end. http.NewResponseController(w).Flush is the
//	    shape that works through wrappers.
//	C3  after a statement that completes an error response — a call to
//	    a module helper that WriteHeaders-and-writes its ResponseWriter
//	    parameter — any later write to the writer in the same block is
//	    a protocol error (and a direct WriteHeader followed by another
//	    header write is a double status line).
func analyzerG016() *Analyzer {
	return &Analyzer{
		ID:       RuleStreamingDiscipline,
		Name:     "streaming-discipline",
		Doc:      "bare Flusher asserts, unflushed NDJSON loops, writes after an error response",
		Severity: Error,
		Run:      runG016,
	}
}

func runG016(p *Pass) []Finding {
	var out []Finding
	writers := p.Mod.headerWriterSummaries()
	for _, file := range p.Pkg.Files {
		for _, fd := range funcDecls(file) {
			if fd.Body == nil {
				continue
			}
			out = append(out, checkFlusherAsserts(p, fd)...)
			out = append(out, checkStreamLoops(p, fd)...)
			out = append(out, checkWriteAfterError(p, fd, writers)...)
		}
	}
	return out
}

// checkFlusherAsserts flags C1: single-result http.Flusher assertions.
func checkFlusherAsserts(p *Pass, fd *ast.FuncDecl) []Finding {
	info := p.Pkg.Info
	var out []Finding
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		ta, ok := n.(*ast.TypeAssertExpr)
		if !ok || ta.Type == nil || !isFlusherType(info.TypeOf(ta.Type)) {
			return true
		}
		if commaOkAssert(stack, ta) {
			return true
		}
		out = append(out, p.finding(RuleStreamingDiscipline, Error, ta.Pos(),
			"single-result http.Flusher assertion panics when middleware wraps the ResponseWriter",
			"use the comma-ok form, or http.NewResponseController(w).Flush which works through wrappers"))
		return true
	})
	return out
}

// commaOkAssert reports whether the type assertion sits in a
// two-result context (v, ok := x.(T)) — including a type switch.
func commaOkAssert(stack []ast.Node, ta *ast.TypeAssertExpr) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		return len(parent.Lhs) == 2 && len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(ta)
	case *ast.TypeSwitchStmt:
		return true
	}
	return false
}

// streamFacts tracks the flush-capable objects of one function.
type streamFacts struct {
	// controllers are http.NewResponseController results; flushers are
	// comma-ok http.Flusher assertion results.
	controllers map[types.Object]bool
	flushers    map[types.Object]bool
	ndjson      bool
}

// checkStreamLoops flags C2: NDJSON stream loops with optional or
// missing flushes.
func checkStreamLoops(p *Pass, fd *ast.FuncDecl) []Finding {
	info := p.Pkg.Info
	facts := collectStreamFacts(info, fd)
	if !facts.ndjson {
		return nil
	}
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		if !loopWritesResponse(info, body) {
			return true
		}
		kind, pos := loopFlushKind(info, body, facts)
		switch kind {
		case flushNone:
			out = append(out, p.finding(RuleStreamingDiscipline, Error, n.Pos(),
				"NDJSON stream loop never flushes; clients see nothing until the handler returns",
				"flush every iteration with http.NewResponseController(w).Flush"))
		case flushOptional:
			out = append(out, p.finding(RuleStreamingDiscipline, Error, pos,
				"stream flush depends on an optional http.Flusher; a wrapped ResponseWriter silently stops streaming",
				"use http.NewResponseController(w).Flush, which reaches through wrappers"))
		}
		return false // judge the outermost writing loop only
	})
	return out
}

// collectStreamFacts finds the NDJSON marker and the flush-capable
// bindings of the function.
func collectStreamFacts(info *types.Info, fd *ast.FuncDecl) streamFacts {
	facts := streamFacts{
		controllers: make(map[types.Object]bool),
		flushers:    make(map[types.Object]bool),
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING && strings.Contains(n.Value, "ndjson") {
				facts.ndjson = true
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			obj := assignedObject(info, id)
			if obj == nil {
				return true
			}
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
				if path, name := pkgQualified(info, call.Fun); path == "net/http" && name == "NewResponseController" {
					facts.controllers[obj] = true
				}
			}
			if ta, ok := n.Rhs[0].(*ast.TypeAssertExpr); ok && ta.Type != nil && isFlusherType(info.TypeOf(ta.Type)) {
				facts.flushers[obj] = true
			}
		}
		return true
	})
	return facts
}

// loopWritesResponse reports whether the loop body writes output per
// iteration (an Encode, Write, or Fprint-family call).
func loopWritesResponse(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Encode", "Write", "WriteString":
				found = true
			}
		}
		if path, name := pkgQualified(info, call.Fun); path == "fmt" && strings.HasPrefix(name, "Fprint") {
			found = true
		}
		return !found
	})
	return found
}

// flush classification for one stream loop.
const (
	flushNone = iota
	flushOptional
	flushSolid
)

// loopFlushKind classifies the loop's flushing: solid (a
// ResponseController flush), optional (a comma-ok Flusher), or none.
func loopFlushKind(info *types.Info, body *ast.BlockStmt, facts streamFacts) (int, token.Pos) {
	kind, pos := flushNone, token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Flush" {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		switch {
		case facts.controllers[obj]:
			kind = flushSolid
			return false
		case facts.flushers[obj]:
			if kind == flushNone {
				kind, pos = flushOptional, call.Pos()
			}
		default:
			// A Flush on anything else (a bufio.Writer, a concrete
			// flusher) is taken at face value.
			kind = flushSolid
			return false
		}
		return true
	})
	return kind, pos
}

// checkWriteAfterError flags C3: writes to a ResponseWriter after a
// statement that already completed an error response in the same
// block.
func checkWriteAfterError(p *Pass, fd *ast.FuncDecl, writers map[*types.Func]int) []Finding {
	info := p.Pkg.Info
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		completed := false // an error response has been fully written
		headered := false  // a bare WriteHeader has run
		for _, st := range list {
			switch {
			case stmtCompletesResponse(info, st, writers):
				if completed {
					out = append(out, p.finding(RuleStreamingDiscipline, Error, st.Pos(),
						"error response written after a response was already completed in this block",
						"return after the first error write"))
				}
				completed, headered = true, true
			case stmtCallsWriteHeader(info, st):
				if completed || headered {
					out = append(out, p.finding(RuleStreamingDiscipline, Error, st.Pos(),
						"WriteHeader after a status line was already sent in this block",
						"a response carries exactly one status; return after the first"))
				}
				headered = true
			case completed && stmtWritesResponse(info, st):
				out = append(out, p.finding(RuleStreamingDiscipline, Error, st.Pos(),
					"write to the ResponseWriter after an error response was completed in this block",
					"return immediately after writing the error"))
			}
		}
		return true
	})
	return out
}

// stmtScope limits statement classification to the statement's own
// level: nested blocks (if/for/switch bodies), case and comm clauses
// (mutually exclusive branches, not sequence), and function literals
// get judged as statement lists of their own, and whether they
// execute is not this list's business.
func stmtScope(n ast.Node) bool {
	switch n.(type) {
	case *ast.BlockStmt, *ast.FuncLit, *ast.CaseClause, *ast.CommClause:
		return false
	}
	return true
}

// stmtCompletesResponse reports whether the statement calls a module
// helper that completes a response on a ResponseWriter argument.
func stmtCompletesResponse(info *types.Info, st ast.Stmt, writers map[*types.Func]int) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if !stmtScope(n) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if callee := staticCallee(info, call); callee != nil {
			if _, ok := writers[callee]; ok {
				found = true
			}
		}
		return !found
	})
	return found
}

// stmtCallsWriteHeader reports whether the statement calls WriteHeader
// on a ResponseWriter directly.
func stmtCallsWriteHeader(info *types.Info, st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if !stmtScope(n) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "WriteHeader" && isResponseWriter(info.TypeOf(sel.X)) {
			found = true
		}
		return !found
	})
	return found
}

// stmtWritesResponse reports whether the statement writes to a
// ResponseWriter: a direct Write, an Fprint-family call taking one, or
// an Encode on a json encoder (which holds the writer).
func stmtWritesResponse(info *types.Info, st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if !stmtScope(n) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Write" && isResponseWriter(info.TypeOf(sel.X)) {
				found = true
			}
			if sel.Sel.Name == "Encode" {
				found = true
			}
		}
		if path, name := pkgQualified(info, call.Fun); path == "fmt" && strings.HasPrefix(name, "Fprint") {
			for _, a := range call.Args {
				if isResponseWriter(info.TypeOf(a)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// headerWriterSummaries computes (once per Run) the module functions
// that complete a response on a ResponseWriter parameter: they call
// WriteHeader on it and write a body. The value is the parameter
// index, so C3 can tell which argument carried the writer.
func (m *ModuleFacts) headerWriterSummaries() map[*types.Func]int {
	if m.headerWriters != nil {
		return m.headerWriters
	}
	m.headerWriters = make(map[*types.Func]int)
	for _, fn := range m.order {
		ff := m.funcs[fn]
		params := paramObjects(ff.pkg.Info, ff.decl)
		for i, param := range params {
			if param == nil || !isResponseWriter(param.Type()) {
				continue
			}
			if callsWriteHeaderOn(ff.pkg.Info, ff.decl.Body, param) {
				m.headerWriters[fn] = i
				break
			}
		}
	}
	return m.headerWriters
}

// callsWriteHeaderOn reports whether the body calls WriteHeader on obj.
func callsWriteHeaderOn(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "WriteHeader" {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isFlusherType reports whether t is net/http.Flusher.
func isFlusherType(t types.Type) bool {
	return isNamedType(t, "net/http", "Flusher")
}

// isResponseWriter reports whether t is net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	return isNamedType(t, "net/http", "ResponseWriter")
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
