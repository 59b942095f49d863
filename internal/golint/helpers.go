package golint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// pkgQualified resolves a call of the form pkg.Name where pkg is an
// imported package name, returning the package's import path and the
// selected name. It returns ("", "") for method calls, locals, and
// anything else.
func pkgQualified(info *types.Info, fun ast.Expr) (path, name string) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// funcDecls yields every function declaration in the file.
func funcDecls(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			out = append(out, fd)
		}
	}
	return out
}

// refersToObject reports whether any identifier under n resolves to one
// of the given objects.
func refersToObject(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// isConstInt reports whether expr is a constant integer equal to v.
func isConstInt(info *types.Info, expr ast.Expr, v int64) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	got, exact := constant.Int64Val(tv.Value)
	return exact && got == v
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// pathMatchesAny reports whether the module-qualified import path ends
// in one of the given suffixes (each matched at a path-segment
// boundary).
func pathMatchesAny(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// exprText renders an expression as source text (for messages and the
// textual sort-suppression match).
func exprText(e ast.Expr) string { return types.ExprString(e) }

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) error.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.AssignableTo(t, errorType)
}
