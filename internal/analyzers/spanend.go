package analyzers

import (
	"go/ast"
	"strings"
)

// checkSpanEnd flags spans started from a tracer whose End is not
// provable on every path out of the function. A call matches when the
// method name begins with "Start" and the receiver looks like a tracer
// (the identifier `tr`, `tracer`, or any path whose last element
// contains "trace", e.g. `s.Trace`). Accepted patterns, per span
// variable X:
//
//   - `X := tr.Start(...)` in a function that also contains
//     `defer X.End(...)` or a deferred closure calling `X.End`
//     (the dominant idiom);
//   - `X := tr.Start(...)` followed later in the same statement list
//     by a statement containing `X.End(...)`, with no return statement
//     in between;
//   - handoff: X stored into a struct field, passed as a call
//     argument, returned, or aliased — ownership moved, the lifecycle
//     is tracked elsewhere.
//
// Discarding the result (`tr.Start(...)` as a statement, or `_ =`)
// and fallthrough or return paths with no End are flagged. The
// analysis is per function body and purely syntactic; intentionally
// unended spans need a suppression comment stating why.
func checkSpanEnd() Check {
	const id = "spanend"
	return Check{
		ID:  id,
		Doc: "every span returned by Tracer.Start* has a defer End, an End on all paths, or an explicit handoff",
		Run: eachFile(func(f *File) []Diagnostic {
			var diags []Diagnostic
			funcBodies(f.AST, func(name string, ftype *ast.FuncType, body *ast.BlockStmt) {
				diags = append(diags, spanFindings(f, id, name, body)...)
			})
			return diags
		}),
	}
}

// looksLikeTracer is the conservative receiver heuristic: only flag
// spans started from something plausibly a tracer, so unrelated
// Start methods (timers, servers) stay out of scope.
func looksLikeTracer(recv string) bool {
	if i := strings.LastIndexByte(recv, '.'); i >= 0 {
		recv = recv[i+1:]
	}
	low := strings.ToLower(recv)
	return low == "tr" || strings.Contains(low, "trace")
}

// spanStart unwraps a call when it is a span-producing Start on a
// tracer-shaped receiver.
func spanStart(call *ast.CallExpr) (recv, name string, ok bool) {
	recv, name = calleeOf(call)
	if recv == "" || !strings.HasPrefix(name, "Start") {
		return "", "", false
	}
	if !looksLikeTracer(recv) {
		return "", "", false
	}
	return recv, name, true
}

// stmtEndsSpan reports whether the statement contains `x.End(...)`
// anywhere outside a nested function literal (which is a separate
// frame; a deferred closure is credited by the deferred-End scan).
func stmtEndsSpan(s ast.Stmt, x string) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if recv, name := calleeOf(call); recv == x && name == "End" {
				found = true
			}
		}
		return !found
	})
	return found
}

// stmtHandsOff reports whether the statement moves ownership of x:
// passes it as a call argument, returns it, re-assigns it, embeds it
// in a composite literal, or sends it on a channel. Using x as a
// method receiver (x.SetAttr) is not a handoff.
func stmtHandsOff(s ast.Stmt, x string) bool {
	isX := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == x
	}
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			for _, a := range n.Args {
				if isX(a) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isX(r) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if isX(r) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if isX(e) {
					found = true
				}
				if kv, ok := e.(*ast.KeyValueExpr); ok && isX(kv.Value) {
					found = true
				}
			}
		case *ast.SendStmt:
			if isX(n.Value) {
				found = true
			}
		}
		return !found
	})
	return found
}

// returnBeforeEnd reports whether the statement can leave the function
// without ending x: it contains a return (outside closures) and no
// `x.End` anywhere within it.
func returnBeforeEnd(s ast.Stmt, x string) bool {
	if stmtEndsSpan(s, x) {
		return false
	}
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if _, ok := n.(*ast.ReturnStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// spanFindings walks one function body.
func spanFindings(f *File, id, fname string, body *ast.BlockStmt) []Diagnostic {
	// Span variables with a deferred End anywhere in the function:
	// safe regardless of control flow.
	deferredEnd := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate frame, separate pass
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if recv, name := calleeOf(ds.Call); recv != "" && name == "End" {
			deferredEnd[recv] = true
		}
		// A deferred closure that ends the span also counts.
		if fl, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if recv, name := calleeOf(call); recv != "" && name == "End" {
					deferredEnd[recv] = true
				}
				return true
			})
		}
		return true
	})

	var diags []Diagnostic
	diag := func(n ast.Node, recv, method, format string, args ...any) {
		diags = append(diags, f.diag(n.Pos(), id,
			"span from "+recv+"."+method+" in "+fname+" "+format, args...))
	}

	var walkList func(stmts []ast.Stmt)
	walkList = func(stmts []ast.Stmt) {
		for i, s := range stmts {
			// Recurse into nested blocks; function literals are their
			// own frame and get their own funcBodies pass.
			ast.Inspect(s, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if blk, ok := n.(*ast.BlockStmt); ok && n != s {
					walkList(blk.List)
					return false
				}
				return true
			})

			switch st := s.(type) {
			case *ast.ExprStmt:
				call, ok := st.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				if recv, method, ok := spanStart(call); ok {
					diag(call, recv, method, "is discarded; assign it and call End")
				}

			case *ast.AssignStmt:
				if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
					continue
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok {
					continue
				}
				recv, method, ok := spanStart(call)
				if !ok {
					continue
				}
				lhs, ok := st.Lhs[0].(*ast.Ident)
				if !ok {
					continue // field or index store: ownership handed off
				}
				if lhs.Name == "_" {
					diag(call, recv, method, "is discarded; assign it and call End")
					continue
				}
				if deferredEnd[lhs.Name] {
					continue
				}
				ended := false
				for _, later := range stmts[i+1:] {
					if stmtEndsSpan(later, lhs.Name) || stmtHandsOff(later, lhs.Name) {
						ended = true
						break
					}
					if returnBeforeEnd(later, lhs.Name) {
						diag(call, recv, method,
							"has a return path before %s.End; use defer %s.End(...)",
							lhs.Name, lhs.Name)
						ended = true // reported; don't double-flag the fallthrough
						break
					}
				}
				if !ended {
					diag(call, recv, method, "has no End on the fallthrough path")
				}
			}
		}
	}
	walkList(body.List)
	return diags
}
