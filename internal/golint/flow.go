package golint

import "go/ast"

// This file holds the syntax helpers shared by the whole-module
// analyzers: ancestor-stack traversal, enclosing function literals, and
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
