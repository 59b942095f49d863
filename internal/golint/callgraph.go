package golint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the whole-module half of the framework: where the G001–
// G005 analyzers judge one file at a time, the dataflow and lifecycle
// rules (G011, G015, G016) need to know what a function *reaches* — a
// field read or a directory sync may sit several helpers away from the
// handler or installer that depends on it. ModuleFacts builds that view
// once per Run: an intra-module static call graph with a per-function
// summary (callees, function-value references, handler wiring, and
// field reads and feeds) that every analyzer can query through
// Pass.Mod.

// callSite is one statically-resolved call to a module-internal
// function.
type callSite struct {
	callee *types.Func
	pos    token.Pos
}

// fieldUse is one read of a named struct's field.
type fieldUse struct {
	owner *types.TypeName
	field string
	pos   token.Pos
}

// feedSite is one write into a named struct's field: a composite-literal
// element, an assignment through a selector, or a compound
// assignment/inc-dec (value == nil when the written expression is not a
// single syntactic operand).
type feedSite struct {
	owner *types.TypeName
	field string
	pos   token.Pos
	value ast.Expr
}

// funcFacts is the per-function summary node of the call graph.
type funcFacts struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl

	calls []callSite
	// refs are function-value references (a module function mentioned
	// outside call position: handler registration, method values,
	// callbacks). They are reachability-only edges.
	refs []callSite

	// wires are module functions referenced by a call that carries a
	// "/v1/..." string literal argument — the serve-handler wiring
	// pattern. The dataflow analyzers treat them as roots (see taint.go).
	wires []callSite

	// fieldReads / fieldFeeds record named-struct field dataflow for the
	// cache-key rule (G011).
	fieldReads []fieldUse
	fieldFeeds []feedSite
}

// ModuleFacts is the whole-module analysis context shared by every
// analyzer of one Run: the call graph over the packages under analysis.
// Functions in packages that were loaded only as dependencies (not
// asked for) are absent, so analysis scope follows the requested
// patterns exactly as it does for the per-file rules.
type ModuleFacts struct {
	modPath string
	funcs   map[*types.Func]*funcFacts
	// order lists the summarized functions deterministically (package,
	// file, position) so every traversal of the graph is replayable.
	order []*types.Func

	serve *serveGraph // lazily-built serve dataflow, see taint.go

	// dirSyncers / headerWriters are the lazily-built interprocedural
	// summaries of the lifecycle rules — which functions fsync a
	// directory (g015.go) and complete an error response on a
	// ResponseWriter parameter (g016.go).
	dirSyncers    map[*types.Func]bool
	headerWriters map[*types.Func]int
}

// newModuleFacts summarizes every function declaration of the given
// packages.
func newModuleFacts(l *Loader, pkgs []*Package) *ModuleFacts {
	m := &ModuleFacts{
		modPath: l.ModPath,
		funcs:   make(map[*types.Func]*funcFacts),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, fd := range funcDecls(file) {
				if fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := &funcFacts{fn: fn, pkg: pkg, decl: fd}
				summarize(l, pkg, ff)
				m.funcs[fn] = ff
				m.order = append(m.order, fn)
			}
		}
	}
	return m
}

// factsOf returns the summary for fn, or nil when fn is outside the
// analyzed set.
func (m *ModuleFacts) factsOf(fn *types.Func) *funcFacts { return m.funcs[fn] }

// summarize fills ff by walking the function body once with an ancestor
// stack, resolving static callees, references and field accesses.
func summarize(l *Loader, pkg *Package, ff *funcFacts) {
	info := pkg.Info
	inspectWithStack(ff.decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			summarizeRef(l, info, n, stack, ff)
		case *ast.SelectorExpr:
			summarizeFieldAccess(info, n, stack, ff)
		case *ast.CompositeLit:
			summarizeLitFeeds(info, n, ff)
		case *ast.CallExpr:
			summarizeCall(l, info, ff, n)
		}
		return true
	})
}

// summarizeCall records one call expression's statically-resolved
// module-internal callee and its serve-handler wiring.
func summarizeCall(l *Loader, info *types.Info, ff *funcFacts, call *ast.CallExpr) {
	// Statically-resolved module-internal callee.
	callee := staticCallee(info, call)
	if callee != nil && callee.Pkg() != nil && isModulePath(l.ModPath, callee.Pkg().Path()) {
		ff.calls = append(ff.calls, callSite{callee: callee, pos: call.Pos()})
	}
	// Serve-handler wiring: a call carrying a "/v1/..." string literal
	// marks its module-internal callee and every module function passed
	// as an argument as handler roots for the dataflow rules.
	if hasServeLiteral(call) {
		if callee != nil && callee.Pkg() != nil && isModulePath(l.ModPath, callee.Pkg().Path()) {
			ff.wires = append(ff.wires, callSite{callee: callee, pos: call.Pos()})
		}
		for _, a := range call.Args {
			if fn := funcValueOf(info, a); fn != nil &&
				fn.Pkg() != nil && isModulePath(l.ModPath, fn.Pkg().Path()) {
				ff.wires = append(ff.wires, callSite{callee: fn, pos: a.Pos()})
			}
		}
	}
}

// summarizeRef records function-value references (reachability edges).
func summarizeRef(l *Loader, info *types.Info, id *ast.Ident, stack []ast.Node, ff *funcFacts) {
	obj, ok := info.Uses[id].(*types.Func)
	if ok && obj.Pkg() != nil && isModulePath(l.ModPath, obj.Pkg().Path()) && !isCallFun(stack, id) {
		ff.refs = append(ff.refs, callSite{callee: obj, pos: id.Pos()})
	}
}

// summarizeFieldAccess classifies a struct-field selector as a read or a
// feed (write). A compound assignment or ++/-- both reads and feeds.
func summarizeFieldAccess(info *types.Info, sel *ast.SelectorExpr, stack []ast.Node, ff *funcFacts) {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	owner := namedStructOf(selection.Recv())
	if owner == nil {
		return
	}
	isWrite, value := selectorWrite(stack, sel)
	if isWrite {
		ff.fieldFeeds = append(ff.fieldFeeds, feedSite{owner: owner, field: sel.Sel.Name, pos: sel.Pos(), value: value})
		if value != nil {
			return
		}
		// A compound assignment (x.F += e, x.F++) reads the old value.
	}
	ff.fieldReads = append(ff.fieldReads, fieldUse{owner: owner, field: sel.Sel.Name, pos: sel.Pos()})
}

// summarizeLitFeeds records composite-literal struct-field feeds,
// including positional literals.
func summarizeLitFeeds(info *types.Info, lit *ast.CompositeLit, ff *funcFacts) {
	owner := namedStructOf(info.TypeOf(lit))
	if owner == nil {
		return
	}
	st, ok := owner.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				ff.fieldFeeds = append(ff.fieldFeeds, feedSite{owner: owner, field: key.Name, pos: kv.Pos(), value: kv.Value})
			}
			continue
		}
		if i < st.NumFields() {
			ff.fieldFeeds = append(ff.fieldFeeds, feedSite{owner: owner, field: st.Field(i).Name(), pos: elt.Pos(), value: elt})
		}
	}
}

// selectorWrite reports whether the selector is a write target, and the
// written expression when it is a single syntactic operand.
func selectorWrite(stack []ast.Node, sel *ast.SelectorExpr) (bool, ast.Expr) {
	if len(stack) == 0 {
		return false, nil
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for i, lhs := range parent.Lhs {
			if lhs != ast.Expr(sel) {
				continue
			}
			if parent.Tok == token.ASSIGN && len(parent.Lhs) == len(parent.Rhs) {
				return true, parent.Rhs[i]
			}
			return true, nil
		}
	case *ast.IncDecStmt:
		if parent.X == ast.Expr(sel) {
			return true, nil
		}
	}
	return false, nil
}

// namedStructOf unwraps pointers and aliases down to a named type whose
// underlying type is a struct, returning its TypeName (nil otherwise).
func namedStructOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}

// isCallFun reports whether id is the function operand of a direct call
// (either the callee ident itself or the Sel of a selector callee) —
// those become call edges, not reference edges.
func isCallFun(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) == 0 {
		return false
	}
	var n ast.Node = id
	parent := stack[len(stack)-1]
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.Sel == id {
		if len(stack) < 2 {
			return false
		}
		n = parent
		parent = stack[len(stack)-2]
	}
	call, ok := parent.(*ast.CallExpr)
	return ok && call.Fun == n
}

// funcValueOf resolves an expression used as a value (not called) to the
// module function it references: a plain identifier or a method value.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// hasServeLiteral reports whether any argument is a string literal
// starting with "/v1/" — the serve endpoint wiring convention.
func hasServeLiteral(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING &&
			strings.HasPrefix(lit.Value, `"/v1/`) {
			return true
		}
	}
	return false
}

// staticCallee resolves a call to its target *types.Func when the
// target is statically known: package-level functions and methods
// called through a concrete receiver. Interface dispatch and calls
// through function values return nil — a documented soundness gap the
// dataflow rules trade for zero false joins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if _, isInterface := sel.Recv().Underlying().(*types.Interface); isInterface {
					return nil
				}
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isModulePath reports whether path names the module or a package
// inside it.
func isModulePath(modPath, path string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}
