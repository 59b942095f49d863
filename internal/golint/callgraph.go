package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the whole-module half of the framework: where the G001–
// G005 analyzers judge one file at a time, the allocation rule (G007)
// needs to know what a function *reaches* — an allocation is only a
// hot-path bug if the function holding it is called from a measured
// loop, possibly through several layers of helpers. ModuleFacts builds
// that view once per Run: an intra-module static call graph with a
// per-function summary (allocation sites, callees with loop context,
// field reads and feeds, context polls, unbounded loops) that every
// analyzer can query through Pass.Mod.

// allocSite is one statically-identified allocation in a function body.
type allocSite struct {
	pos token.Pos
	// what names the allocating construct for the finding message, e.g.
	// "make([]Value)" or "append that may grow its backing array".
	what string
	// inLoop reports whether the site sits inside a for/range body of
	// its enclosing declared function.
	inLoop bool
	// cold reports whether the site sits on an error/panic path (a
	// block that returns a non-nil error or panics), which the hot-path
	// rule tolerates: failure paths run once, not per iteration.
	cold bool
}

// callSite is one statically-resolved call to a module-internal
// function.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	inLoop bool
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

// loopSite is one statically-unbounded for statement: `for {}`, a
// cond-only `for x {}`, or a 3-clause loop with no condition. Range
// loops and loops with a post statement are considered bounded by the
// values they walk.
type loopSite struct {
	pos  token.Pos
	body *ast.BlockStmt
	// nested reports whether the loop body contains another loop
	// (outside nested function literals) — the "does real work per
	// iteration" half of the G012 compound test.
	nested bool
}

// funcFacts is the per-function summary node of the call graph.
type funcFacts struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl

	allocs []allocSite
	calls  []callSite
	// refs are function-value references (a module function mentioned
	// outside call position: handler registration, method values,
	// callbacks). They are reachability-only edges — G007's hot set
	// deliberately ignores them because a reference is not an execution.
	refs []callSite

	// wires are module functions referenced by a call that carries a
	// "/v1/..." string literal argument — the serve-handler wiring
	// pattern. The dataflow analyzers treat them as roots (see taint.go).
	wires []callSite

	// fieldReads / fieldFeeds record named-struct field dataflow for the
	// cache-key rule (G011).
	fieldReads []fieldUse
	fieldFeeds []feedSite

	// polls are direct context-poll sites: ctx.Err() calls and receives
	// from struct{}-element channels (the ctx.Done()/done-channel
	// convention every engine uses).
	polls []token.Pos
	// loops are the statically-unbounded loops; hasLoop is true when the
	// body contains any loop at all (used for the compound test).
	loops   []loopSite
	hasLoop bool
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

	hot   map[*types.Func]string // lazily-built hot set, see hotFuncs
	serve *serveGraph            // lazily-built serve dataflow, see taint.go

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
				summarize(l, pkg, fd, ff)
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
// stack, classifying allocation sites and resolving static callees.
func summarize(l *Loader, pkg *Package, fd *ast.FuncDecl, ff *funcFacts) {
	info := pkg.Info
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			ff.hasLoop = true
			if n.Cond == nil || n.Post == nil {
				ff.loops = append(ff.loops, loopSite{pos: n.Pos(), body: n.Body, nested: containsLoop(n.Body)})
			}
		case *ast.RangeStmt:
			ff.hasLoop = true
		case *ast.Ident:
			summarizeRef(l, info, n, stack, ff)
		case *ast.SelectorExpr:
			summarizeFieldAccess(info, n, stack, ff)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				ff.allocs = append(ff.allocs, newAllocSite(info, n.OpPos,
					"string concatenation builds a fresh string", fd, stack))
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					ff.allocs = append(ff.allocs, newAllocSite(info, n.Pos(),
						fmt.Sprintf("&%s{…} composite literal escapes to the heap", exprText(compositeTypeExpr(n.X.(*ast.CompositeLit)))), fd, stack))
				}
			}
			if n.Op == token.ARROW && isSignalChan(info.TypeOf(n.X)) {
				ff.polls = append(ff.polls, n.Pos())
			}
		case *ast.CompositeLit:
			if site, ok := compositeAlloc(info, n, stack); ok {
				ff.allocs = append(ff.allocs, newAllocSite(info, n.Pos(), site, fd, stack))
			}
			summarizeLitFeeds(info, n, ff)
		case *ast.CallExpr:
			summarizeCall(l, pkg, fd, ff, n, stack)
		}
		return true
	})
}

// summarizeCall classifies one call expression: builtin allocators,
// allocating conversions, known stdlib allocators, context polls, and
// statically-resolved module-internal callees.
func summarizeCall(l *Loader, pkg *Package, fd *ast.FuncDecl, ff *funcFacts, call *ast.CallExpr, stack []ast.Node) {
	info := pkg.Info
	// Builtins: make and new always allocate; append allocates when it
	// grows, so everything except the x = append(x, …) reuse idiom (and
	// its x = append(x[:k], …) reslice form) counts.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				ff.allocs = append(ff.allocs, newAllocSite(info, call.Pos(),
					fmt.Sprintf("make(%s)", exprText(call.Args[0])), fd, stack))
			case "new":
				ff.allocs = append(ff.allocs, newAllocSite(info, call.Pos(),
					fmt.Sprintf("new(%s)", exprText(call.Args[0])), fd, stack))
			case "append":
				if !isSelfAppend(call, stack) {
					ff.allocs = append(ff.allocs, newAllocSite(info, call.Pos(),
						fmt.Sprintf("append to %s may grow its backing array", exprText(call.Args[0])), fd, stack))
				}
			}
			return
		}
	}
	// Allocating conversions: string(bytes), []byte(s), []rune(s) copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := info.TypeOf(call.Fun)
		from := info.TypeOf(call.Args[0])
		if isCopyingConversion(to, from) {
			ff.allocs = append(ff.allocs, newAllocSite(info, call.Pos(),
				fmt.Sprintf("%s(…) conversion copies its operand", exprText(call.Fun)), fd, stack))
			return
		}
	}
	// Known stdlib allocators (their bodies are outside the module, so
	// the call graph cannot see into them).
	if path, name := pkgQualified(info, call.Fun); path != "" {
		if reason := stdlibAllocator(path, name); reason != "" {
			ff.allocs = append(ff.allocs, newAllocSite(info, call.Pos(), reason, fd, stack))
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Err" && isContextType(info.TypeOf(sel.X)) {
		ff.polls = append(ff.polls, call.Pos())
	}
	// Statically-resolved module-internal callee.
	callee := staticCallee(info, call)
	if callee != nil && callee.Pkg() != nil && isModulePath(l.ModPath, callee.Pkg().Path()) {
		ff.calls = append(ff.calls, callSite{callee: callee, pos: call.Pos(), inLoop: inLoopAt(stack, call.Pos())})
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

// containsLoop reports whether the block contains a for/range statement
// outside nested function literals (a closure defined in a loop body
// does not execute per iteration).
func containsLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// isSignalChan reports whether t is a channel of empty structs — the
// ctx.Done()/done-channel signalling convention. Receiving from one is
// counted as a context poll.
func isSignalChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
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

// newAllocSite records an allocation with its loop and cold-path
// context derived from the ancestor stack.
func newAllocSite(info *types.Info, pos token.Pos, what string, fd *ast.FuncDecl, stack []ast.Node) allocSite {
	return allocSite{
		pos:    pos,
		what:   what,
		inLoop: inLoopAt(stack, pos),
		cold:   onColdPath(info, fd, stack),
	}
}

// compositeAlloc classifies a composite literal: slice and map literals
// allocate backing storage; struct and array value literals do not (and
// &T{…} is reported at its unary parent). Untyped element literals
// inside a surrounding slice/map literal carry no type expression and
// are covered by the outer report.
func compositeAlloc(info *types.Info, lit *ast.CompositeLit, stack []ast.Node) (string, bool) {
	if lit.Type == nil {
		return "", false
	}
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			return "", false
		}
	}
	switch info.TypeOf(lit).Underlying().(type) {
	case *types.Slice:
		return fmt.Sprintf("%s{…} slice literal allocates backing storage", exprText(lit.Type)), true
	case *types.Map:
		return fmt.Sprintf("%s{…} map literal allocates", exprText(lit.Type)), true
	}
	return "", false
}

// compositeTypeExpr returns the literal's type expression (for
// messages); literals inside &T{…} always carry one.
func compositeTypeExpr(lit *ast.CompositeLit) ast.Expr {
	if lit.Type != nil {
		return lit.Type
	}
	return &ast.Ident{Name: "…"}
}

// isSelfAppend recognizes the amortized reuse idiom x = append(x, …)
// (including x = append(x[:k], …)): after warmup the backing array is
// reused, so the steady state is allocation-free — exactly the
// discipline the preallocated-arena rewrite institutionalizes.
func isSelfAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 || len(stack) == 0 {
		return false
	}
	assign, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != ast.Expr(call) {
		return false
	}
	dst := exprText(assign.Lhs[0])
	src := call.Args[0]
	if slice, ok := src.(*ast.SliceExpr); ok {
		src = slice.X
	}
	return exprText(src) == dst
}

// isCopyingConversion reports whether a conversion from `from` to `to`
// copies memory: string <-> []byte/[]rune in either direction.
func isCopyingConversion(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

// stdlibAllocator names the well-known allocating stdlib helpers the
// source-level walk cannot see into, with the reason used in messages.
func stdlibAllocator(path, name string) string {
	switch path {
	case "fmt":
		switch name {
		case "Sprintf", "Sprint", "Sprintln", "Errorf":
			return "fmt." + name + " allocates its result (and boxes every argument)"
		}
	case "strconv":
		switch name {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote":
			return "strconv." + name + " allocates its result string"
		}
	case "strings":
		switch name {
		case "Join", "Repeat", "Split", "Fields", "Replace", "ReplaceAll", "ToUpper", "ToLower":
			return "strings." + name + " allocates its result"
		}
	}
	return ""
}

// staticCallee resolves a call to its target *types.Func when the
// target is statically known: package-level functions and methods
// called through a concrete receiver. Interface dispatch and calls
// through function values return nil — a documented soundness gap the
// hot-path rule trades for zero false joins.
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

// hotFuncs computes (once per Run) the set of functions that execute
// per-iteration of a measured loop: for every entry in the
// hotLoopEntries table, the callees invoked inside the entry's loops,
// closed transitively over the call graph. The map value is the entry
// the function was first reached from, for finding messages; the
// traversal visits entries and callees in deterministic order so the
// attribution is stable.
func (m *ModuleFacts) hotFuncs() map[*types.Func]string {
	if m.hot != nil {
		return m.hot
	}
	m.hot = make(map[*types.Func]string)
	type seed struct {
		fn    *types.Func
		entry string
	}
	var queue []seed
	for _, fn := range m.order {
		ff := m.funcs[fn]
		if !isHotLoopEntry(ff.pkg.Path, fn.Name()) {
			continue
		}
		entry := ff.pkg.Types.Name() + "." + fn.Name()
		for _, cs := range ff.calls {
			if cs.inLoop {
				queue = append(queue, seed{fn: cs.callee, entry: entry})
			}
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if _, seen := m.hot[s.fn]; seen {
			continue
		}
		ff := m.funcs[s.fn]
		if ff == nil {
			continue // outside the analyzed set (or its dependency closure)
		}
		m.hot[s.fn] = s.entry
		for _, cs := range ff.calls {
			queue = append(queue, seed{fn: cs.callee, entry: s.entry})
		}
	}
	return m.hot
}
