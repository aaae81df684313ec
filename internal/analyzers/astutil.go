package analyzers

import (
	"go/ast"
	"strings"
)

// exprString renders the receiver-ish expressions the checks compare
// (identifiers, selector chains, index and dereference forms) into a
// canonical string, e.g. "s.mu" or "shards[i].mu". Unsupported forms
// render as "?".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.BinaryExpr:
		return exprString(e.X) + e.Op.String() + exprString(e.Y)
	}
	return "?"
}

// importName returns the local name under which a file imports the
// given path ("" when not imported). An explicit alias wins; otherwise
// the last path element is the conventional name.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// calleeOf unwraps a call to (pkgOrRecv, name) when the callee is a
// selector like rand.Intn or mu.Lock, or ("", name) for a plain
// identifier call.
func calleeOf(call *ast.CallExpr) (recv, name string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return "", fun.Name
	case *ast.SelectorExpr:
		return exprString(fun.X), fun.Sel.Name
	}
	return "", ""
}

// funcDecls yields every top-level function declaration with a body.
// Checks that Inspect the whole body (descending into closures) use
// this to avoid visiting a closure twice; checks that need per-frame
// analysis use funcBodies.
func funcDecls(f *ast.File, fn func(name string, ftype *ast.FuncType, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd.Name.Name, fd.Type, fd.Body)
		}
	}
}

// funcBodies yields every function body in the file together with its
// declaration-ish name, covering both declarations and literals.
func funcBodies(root ast.Node, fn func(name string, ftype *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Name.Name, n.Type, n.Body)
			}
		case *ast.FuncLit:
			fn("func literal", n.Type, n.Body)
		}
		return true
	})
}
