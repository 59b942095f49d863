package golint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the syntax helpers shared by the whole-module
// analyzers: ancestor-stack traversal, loop and cold-path context, and
// lvalue resolution.

// inspectWithStack walks the AST under root calling fn with the current
// ancestor stack (root's ancestors excluded; stack[len-1] is the direct
// parent). Returning false prunes the subtree.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// inLoopAt reports whether pos sits inside the body of a for or range
// statement on the ancestor stack. Positions in a loop's init, cond, or
// post clause run once per iteration too, but only body membership is
// claimed here — the clauses are vanishingly rare allocation sites.
func inLoopAt(stack []ast.Node, pos token.Pos) bool {
	for _, a := range stack {
		var body *ast.BlockStmt
		switch s := a.(type) {
		case *ast.ForStmt:
			body = s.Body
		case *ast.RangeStmt:
			body = s.Body
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			return true
		}
	}
	return false
}

// onColdPath reports whether the site sits in a block that directly
// returns a non-nil error or panics — a failure path that runs once,
// not per loop iteration. The function's outermost body is never
// considered cold: a function whose main path returns an error is not
// thereby exempt.
func onColdPath(info *types.Info, fd *ast.FuncDecl, stack []ast.Node) bool {
	for _, a := range stack {
		block, ok := a.(*ast.BlockStmt)
		if !ok || block == fd.Body {
			continue
		}
		for _, st := range block.List {
			switch st := st.(type) {
			case *ast.ReturnStmt:
				if len(st.Results) == 0 {
					continue
				}
				last := st.Results[len(st.Results)-1]
				if _, isNil := info.Types[last]; isNil && info.Types[last].IsNil() {
					continue
				}
				if isErrorType(info.TypeOf(last)) {
					return true
				}
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// innermostFuncLit returns the innermost function literal on the stack,
// or nil when the position is in the declared function's own frame.
func innermostFuncLit(stack []ast.Node) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// rootIdent peels index, selector, paren, and deref layers off an
// lvalue and returns its base identifier (nil when the base is not an
// identifier, e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isByteOrRuneSlice reports whether t is []byte or []rune.
func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
