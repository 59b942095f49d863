package golint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// This file is the interprocedural dataflow half of the whole-module
// framework: where callgraph.go summarizes what each function *does*,
// serveGraph derives what the serving layer can *reach* and which data
// can *flow* — the two facts the G011 rule is built on:
//
//   - backward reachability from the /v1/* handler wiring (call edges
//     plus function-value reference edges, so method values, deferred
//     calls, and registered callbacks are all followed), and
//   - forward field-sensitive taint from reads of the canonicalized
//     (cache-keyed) option structs through call edges.
//
// Soundness stance, matching the call graph's: interface dispatch and
// calls through function values are not followed (documented gap — the
// serve closures are covered anyway because closure bodies are
// summarized into their enclosing declaration), and taint joins are
// coarse at call boundaries: a call with any tainted argument produces a
// tainted result. Over-taint errs toward "this feed is keyed", which is
// the safe direction for a rule whose error case is "read but not
// keyed".

// keyedField is one field of a canonicalized serve option struct.
type keyedField struct {
	owner *types.TypeName
	obj   *types.Var // field object, for finding positions
	name  string     // Go field name
	tag   string     // json tag name ("" = field name, "-" = excluded)
	// keyed is true when the field participates in the cache key:
	// exported, not tag-excluded, not stripped, not exempt.
	keyed bool
	// excluded is true for `json:"-"` or unexported fields.
	excluded bool
	// stripped is true when a reachable function zeroes the field before
	// it is hashed (the timeout_ms idiom).
	stripped bool
	// exempt is true when the keyExemptFields table vets the exclusion.
	exempt bool
}

// feedFact aggregates every feed of one engine-option field on the
// reachable path.
type feedFact struct {
	fed      bool // any feed exists
	fedKeyed bool // at least one feed's value derives from keyed data
}

// serveGraph is the lazily-built dataflow context over one Run's module
// facts.
type serveGraph struct {
	m *ModuleFacts

	// roots are the handler-wired functions in deterministic wire order.
	roots []*funcFacts
	// reach maps every function reachable from a root to the "pkg.Func"
	// attribution of the root it was first reached from.
	reach map[*types.Func]string
	// reachList is the reachable set in summary order.
	reachList []*funcFacts

	// keyedStructs are the canonicalized option structs discovered from
	// root return types, with their field classification.
	keyedStructs []*types.TypeName
	keyedFields  map[string]*keyedField // fieldKey -> classification

	// taintVar / taintRet are the forward-taint fixpoint results.
	taintVar map[types.Object]bool
	taintRet map[*types.Func]bool
	changed  bool

	// feeds aggregates engine-option-struct field feeds on the reachable
	// path; reads aggregates reachable field reads (engine and keyed
	// structs alike), keyed by fieldKey, values in summary order.
	feeds map[string]*feedFact
	reads map[string][]fieldUse
	// readBy names the first reachable function reading each field, for
	// messages.
	readBy map[string]string
}

// fieldKey builds the stable identity of a named struct field.
func fieldKey(owner *types.TypeName, field string) string {
	return owner.Pkg().Path() + "." + owner.Name() + "." + field
}

// serveFacts builds (once per Run) the serve-path dataflow context.
func (m *ModuleFacts) serveFacts() *serveGraph {
	if m.serve != nil {
		return m.serve
	}
	g := &serveGraph{
		m:           m,
		reach:       make(map[*types.Func]string),
		keyedFields: make(map[string]*keyedField),
		taintVar:    make(map[types.Object]bool),
		taintRet:    make(map[*types.Func]bool),
		feeds:       make(map[string]*feedFact),
		reads:       make(map[string][]fieldUse),
		readBy:      make(map[string]string),
	}
	m.serve = g
	g.findRoots()
	g.computeReach()
	g.findKeyedStructs()
	g.taintFixpoint()
	g.collectFlows()
	return g
}

// findRoots collects the handler-wired functions in wire order.
func (g *serveGraph) findRoots() {
	type wired struct {
		fn  *types.Func
		pos token.Pos
	}
	var all []wired
	for _, fn := range g.m.order {
		for _, w := range g.m.funcs[fn].wires {
			all = append(all, wired{fn: w.callee, pos: w.pos})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	seen := make(map[*types.Func]bool)
	for _, w := range all {
		if seen[w.fn] {
			continue
		}
		seen[w.fn] = true
		if ff := g.m.factsOf(w.fn); ff != nil {
			g.roots = append(g.roots, ff)
		}
	}
}

// computeReach runs the breadth-first closure from the roots over call
// and reference edges, attributing every function to the first root that
// reaches it.
func (g *serveGraph) computeReach() {
	type seed struct {
		fn   *types.Func
		root string
	}
	var queue []seed
	for _, ff := range g.roots {
		root := ff.pkg.Types.Name() + "." + ff.fn.Name()
		queue = append(queue, seed{fn: ff.fn, root: root})
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if _, ok := g.reach[s.fn]; ok {
			continue
		}
		ff := g.m.factsOf(s.fn)
		if ff == nil {
			continue
		}
		g.reach[s.fn] = s.root
		for _, cs := range ff.calls {
			queue = append(queue, seed{fn: cs.callee, root: s.root})
		}
		for _, cs := range ff.refs {
			queue = append(queue, seed{fn: cs.callee, root: s.root})
		}
	}
	for _, fn := range g.m.order {
		if _, ok := g.reach[fn]; ok {
			g.reachList = append(g.reachList, g.m.funcs[fn])
		}
	}
}

// findKeyedStructs discovers the canonicalized option structs: for every
// root function, the static type of the first operand of its own (non-
// closure) return statements, when that is a module-declared struct.
// Fields are classified against json tags, strip assignments on the
// reachable path, and the keyExemptFields table.
func (g *serveGraph) findKeyedStructs() {
	seen := make(map[*types.TypeName]bool)
	for _, ff := range g.roots {
		info := ff.pkg.Info
		inspectWithStack(ff.decl.Body, func(n ast.Node, stack []ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) == 0 || innermostFuncLit(stack) != nil {
				return true
			}
			owner := namedStructOf(info.TypeOf(ret.Results[0]))
			if owner == nil || owner.Pkg() == nil || !isModulePath(g.m.modPath, owner.Pkg().Path()) {
				return true
			}
			if !seen[owner] {
				seen[owner] = true
				g.keyedStructs = append(g.keyedStructs, owner)
				g.classifyFields(owner)
			}
			return true
		})
	}
	// Strip detection: a reachable feed that zeroes a keyed-struct field
	// before hashing removes it from the key.
	for _, ff := range g.reachList {
		for _, fs := range ff.fieldFeeds {
			kf := g.keyedFields[fieldKey(fs.owner, fs.field)]
			if kf == nil || fs.value == nil || !isZeroExpr(ff.pkg.Info, fs.value) {
				continue
			}
			kf.stripped = true
			if !kf.exempt {
				kf.keyed = false
			}
		}
	}
}

// classifyFields records the field classification of one keyed struct.
func (g *serveGraph) classifyFields(owner *types.TypeName) {
	st := owner.Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		if idx := strings.Index(tag, ","); idx >= 0 {
			tag = tag[:idx]
		}
		kf := &keyedField{owner: owner, obj: f, name: f.Name(), tag: tag}
		switch {
		case !f.Exported() || tag == "-":
			kf.excluded = true
		case keyExemptField(tag, f.Name()):
			kf.exempt = true
		default:
			kf.keyed = true
		}
		g.keyedFields[fieldKey(owner, f.Name())] = kf
	}
}

// taintFixpoint runs the forward taint propagation over the reachable
// set to a fixed point: seeds are reads of keyed option-struct fields;
// taint flows through assignments, range statements, call arguments into
// callee parameters, and callee returns.
func (g *serveGraph) taintFixpoint() {
	const maxPasses = 32
	for pass := 0; pass < maxPasses; pass++ {
		g.changed = false
		for _, ff := range g.reachList {
			g.taintWalk(ff)
		}
		if !g.changed {
			return
		}
	}
}

// taintWalk runs one propagation pass over a function body.
func (g *serveGraph) taintWalk(ff *funcFacts) {
	info := ff.pkg.Info
	inspectWithStack(ff.decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				if g.exprTainted(ff, n.Rhs[0]) {
					for _, lhs := range n.Lhs {
						g.markLhs(info, lhs)
					}
				}
				return true
			}
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && g.exprTainted(ff, rhs) {
					g.markLhs(info, n.Lhs[i])
				}
			}
		case *ast.RangeStmt:
			if g.exprTainted(ff, n.X) {
				if n.Key != nil {
					g.markLhs(info, n.Key)
				}
				if n.Value != nil {
					g.markLhs(info, n.Value)
				}
			}
		case *ast.ReturnStmt:
			if innermostFuncLit(stack) != nil {
				return true
			}
			for _, res := range n.Results {
				if g.exprTainted(ff, res) {
					g.markRet(ff.fn)
				}
			}
		case *ast.CallExpr:
			g.callTainted(ff, n)
		}
		return true
	})
}

// exprTainted reports whether the expression's value derives from keyed
// option data.
func (g *serveGraph) exprTainted(ff *funcFacts, e ast.Expr) bool {
	info := ff.pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return g.taintVar[obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if owner := namedStructOf(sel.Recv()); owner != nil {
				if kf := g.keyedFields[fieldKey(owner, e.Sel.Name)]; kf != nil && kf.keyed {
					return true
				}
			}
		}
		return g.exprTainted(ff, e.X)
	case *ast.CallExpr:
		return g.callTainted(ff, e)
	case *ast.BinaryExpr:
		return g.exprTainted(ff, e.X) || g.exprTainted(ff, e.Y)
	case *ast.UnaryExpr:
		return g.exprTainted(ff, e.X)
	case *ast.StarExpr:
		return g.exprTainted(ff, e.X)
	case *ast.ParenExpr:
		return g.exprTainted(ff, e.X)
	case *ast.IndexExpr:
		return g.exprTainted(ff, e.X) || g.exprTainted(ff, e.Index)
	case *ast.SliceExpr:
		return g.exprTainted(ff, e.X)
	case *ast.TypeAssertExpr:
		return g.exprTainted(ff, e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if g.exprTainted(ff, elt) {
				return true
			}
		}
	}
	return false
}

// callTainted propagates taint through one call: tainted arguments taint
// the resolved callee's parameters, and the result is tainted when any
// argument (or the receiver) is tainted or the callee's return is.
func (g *serveGraph) callTainted(ff *funcFacts, call *ast.CallExpr) bool {
	info := ff.pkg.Info
	anyIn := false
	var taintedArgs []int
	for i, a := range call.Args {
		if g.exprTainted(ff, a) {
			anyIn = true
			taintedArgs = append(taintedArgs, i)
		}
	}
	recvTainted := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if g.exprTainted(ff, sel.X) {
			anyIn = true
			recvTainted = true
		}
	}
	callee := staticCallee(info, call)
	if callee == nil {
		return anyIn
	}
	if cff := g.m.factsOf(callee); cff != nil {
		g.taintParams(cff, taintedArgs, recvTainted)
	}
	return anyIn || g.taintRet[callee]
}

// taintParams marks the callee's parameter objects for the tainted
// argument indices (variadic overflow collapses onto the last
// parameter), plus the receiver when the receiver expression is tainted.
func (g *serveGraph) taintParams(cff *funcFacts, taintedArgs []int, recvTainted bool) {
	if recvTainted && cff.decl.Recv != nil {
		for _, f := range cff.decl.Recv.List {
			for _, name := range f.Names {
				g.markObj(cff.pkg.Info.Defs[name])
			}
		}
	}
	if len(taintedArgs) == 0 {
		return
	}
	var params []*ast.Ident
	for _, f := range cff.decl.Type.Params.List {
		if len(f.Names) == 0 {
			params = append(params, nil) // unnamed parameter: nothing to taint
			continue
		}
		for _, name := range f.Names {
			params = append(params, name)
		}
	}
	for _, i := range taintedArgs {
		if i >= len(params) {
			i = len(params) - 1
		}
		if i >= 0 && params[i] != nil {
			g.markObj(cff.pkg.Info.Defs[params[i]])
		}
	}
}

// markLhs taints the root variable of an assignment target.
func (g *serveGraph) markLhs(info *types.Info, lhs ast.Expr) {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	if obj := info.Defs[id]; obj != nil {
		g.markObj(obj)
		return
	}
	g.markObj(info.Uses[id])
}

// markObj taints one object, recording progress for the fixpoint.
func (g *serveGraph) markObj(obj types.Object) {
	if obj == nil || g.taintVar[obj] {
		return
	}
	g.taintVar[obj] = true
	g.changed = true
}

// markRet taints a function's return values.
func (g *serveGraph) markRet(fn *types.Func) {
	if g.taintRet[fn] {
		return
	}
	g.taintRet[fn] = true
	g.changed = true
}

// collectFlows aggregates (after the fixpoint) the reachable field reads
// and the engine-option feeds with their final taint verdicts.
func (g *serveGraph) collectFlows() {
	for _, ff := range g.reachList {
		fnName := ff.pkg.Types.Name() + "." + ff.fn.Name()
		for _, fr := range ff.fieldReads {
			key := fieldKey(fr.owner, fr.field)
			g.reads[key] = append(g.reads[key], fr)
			if _, ok := g.readBy[key]; !ok {
				g.readBy[key] = fnName
			}
		}
		for _, fs := range ff.fieldFeeds {
			if fs.owner.Pkg() == nil || !isEngineOptionStruct(fs.owner.Pkg().Path(), fs.owner.Name()) {
				continue
			}
			key := fieldKey(fs.owner, fs.field)
			fact := g.feeds[key]
			if fact == nil {
				fact = &feedFact{}
				g.feeds[key] = fact
			}
			fact.fed = true
			if fs.value != nil && g.exprTainted(ff, fs.value) {
				fact.fedKeyed = true
			}
		}
	}
}

// readInReach reports whether the field is read anywhere on the
// reachable path.
func (g *serveGraph) readInReach(owner *types.TypeName, field string) bool {
	return len(g.reads[fieldKey(owner, field)]) > 0
}

// isZeroExpr reports whether the expression is a zero value: constant 0,
// "", false, or nil.
func isZeroExpr(info *types.Info, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.String() {
	case "0", `""`, "false":
		return true
	}
	return false
}
