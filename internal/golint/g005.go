package golint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// analyzerG005 enforces error hygiene in non-test code:
//
//   - a call statement that silently discards an error result
//     (warning). Deferred calls and explicit `_ =` assignments are
//     visible decisions and stay clean, as are the writers whose error
//     returns are conventionally ignored: the fmt print family, the
//     never-failing strings.Builder/bytes.Buffer/hash.Hash writers,
//     and bufio.Writer (sticky errors, surfaced by Flush — a discarded
//     Flush is still flagged).
//   - fmt.Errorf over a live error value without %w (info): the message
//     survives but the chain is severed, so errors.Is/As callers —
//     including the internal/cli exit-code mapper — stop seeing the
//     cause. Keeping %v is occasionally right (hiding an internal
//     error); the info severity flags the decision without gating on
//     it.
func analyzerG005() *Analyzer {
	return &Analyzer{
		ID:       RuleErrorHygiene,
		Name:     "error-hygiene",
		Doc:      "discarded error returns and fmt.Errorf wrapping an error without %w",
		Severity: Warning,
		Run:      runG005,
	}
}

func runG005(p *Pass) []Finding {
	var out []Finding
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !returnsError(info, call) || errorIgnorable(info, call) {
					return true
				}
				out = append(out, p.finding(RuleErrorHygiene, Warning, call.Pos(),
					fmt.Sprintf("error result of %s discarded", callName(call)),
					"handle the error, or assign it to _ to record the decision"))
			case *ast.CallExpr:
				out = append(out, checkErrorfWrap(p, n)...)
			}
			return true
		})
	}
	return out
}

// checkErrorfWrap flags fmt.Errorf calls that interpolate an error
// value without the %w verb.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) []Finding {
	info := p.Pkg.Info
	if pkg, name := pkgQualified(info, call.Fun); pkg != "fmt" || name != "Errorf" {
		return nil
	}
	if len(call.Args) < 2 {
		return nil
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok {
		return nil
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return nil
	}
	for _, arg := range call.Args[1:] {
		t := info.TypeOf(arg)
		if t != nil && isErrorType(t) {
			return []Finding{p.finding(RuleErrorHygiene, Info, call.Pos(),
				fmt.Sprintf("fmt.Errorf interpolates error %s without %%w: the error chain is severed", exprText(arg)),
				"use %w to keep errors.Is/As working, or keep %v deliberately to hide the cause")}
		}
	}
	return nil
}

// returnsError reports whether the call's results include an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// errorIgnorable lists the calls whose error results are
// conventionally discarded: the fmt print family, and writers that
// document they never fail.
func errorIgnorable(info *types.Info, call *ast.CallExpr) bool {
	if pkg, name := pkgQualified(info, call.Fun); pkg == "fmt" {
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		// Documented never to fail.
		return true
	case "hash.Hash":
		// hash.Hash.Write is documented never to return an error.
		return true
	case "bufio.Writer":
		// bufio.Writer errors are sticky and surface from Flush, which
		// stays flagged when its own result is discarded.
		return true
	}
	return false
}

// callName renders the called expression for a message.
func callName(call *ast.CallExpr) string { return exprText(call.Fun) }
