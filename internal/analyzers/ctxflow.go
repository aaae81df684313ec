package analyzers

import (
	"go/ast"
	"go/types"
)

// checkCtxFlow enforces end-to-end context threading on the request
// paths the serving and cluster layers depend on for graceful shutdown:
// a request context that stops flowing is a probe or forward that
// outlives its deadline, or a drain that cannot interrupt what it is
// draining. Four rules, all scoped to functions that carry a context —
// a context.Context parameter or an *http.Request (HTTP handler shape):
//
//  1. context.Background()/context.TODO() created inside a
//     context-carrying function: the fresh root silently detaches
//     everything below it from cancellation.
//  2. The same creation in a function without a context, when every
//     caller in the call graph carries one: the function should accept
//     a ctx instead of cutting the chain (flagged at the creation).
//  3. A blocking channel operation inside a for-loop of a
//     context-carrying function with no ctx.Done() escape: raw
//     sends/receives, or a select with neither a Done() case nor a
//     default, can spin past cancellation forever.
//  4. A call to a loaded function that accepts a context.Context, made
//     from a context-carrying function, that does not pass anything
//     derived from the caller's context: the callee blocks under a
//     deadline the caller no longer controls.
//
// Derivation (rule 4) is a small forward dataflow: the caller's ctx
// parameters and r.Context() results seed the derived set, and any
// variable assigned from an expression mentioning a derived value
// joins it (context.WithTimeout(ctx, ...), sub-contexts, renames).
func checkCtxFlow() Check {
	const id = "ctxflow"
	return Check{
		ID: id,
		Doc: "request contexts must thread end-to-end: no Background()/TODO() below a ctx, " +
			"no ctx-blind blocking loops, ctx passed to every ctx-accepting callee",
		Run: func(p *Pass) []Diagnostic {
			var diags []Diagnostic
			for _, n := range p.Graph.Nodes() {
				if n.External() {
					continue
				}
				if nodeCarriesContext(n) {
					diags = append(diags, ctxRootFindings(id, n)...)
					diags = append(diags, ctxLoopFindings(id, n)...)
					diags = append(diags, ctxThreadFindings(id, n)...)
				} else {
					diags = append(diags, ctxCallerFindings(id, n)...)
				}
			}
			return diags
		},
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isHTTPRequestPtr reports whether t is *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// signatureOf returns a node's signature (nil for literals without type
// info or unresolved externals).
func signatureOf(n *CallNode) *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil && n.File != nil {
		if tv, ok := n.File.Package.Info.Types[n.Lit]; ok {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

// carriesContext reports whether the node receives a context — a
// context.Context parameter or an *http.Request (HTTP handler shape).
func carriesContext(n *CallNode) bool {
	sig := signatureOf(n)
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if t := params.At(i).Type(); isContextType(t) || isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

// nodeCarriesContext extends carriesContext to closures: a literal
// inherits its enclosing function's context access, since the ctx is in
// scope in its body.
func nodeCarriesContext(n *CallNode) bool {
	for cur := n; cur != nil; cur = cur.Enclosing {
		if carriesContext(cur) {
			return true
		}
	}
	return false
}

// contextRootCalls yields every context.Background()/TODO() call
// directly in a node's body (nested literals are their own nodes).
func contextRootCalls(n *CallNode, fn func(call *ast.CallExpr, which string)) {
	inspectOwnBody(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fnObj := calleeFunc(n, call); fnObj != nil {
			if pkg := fnObj.Pkg(); pkg != nil && pkg.Path() == "context" {
				if name := fnObj.Name(); name == "Background" || name == "TODO" {
					fn(call, "context."+name)
				}
			}
		}
		return true
	})
}

// ctxRootFindings is rule 1: fresh context roots below a context.
func ctxRootFindings(id string, n *CallNode) []Diagnostic {
	var diags []Diagnostic
	contextRootCalls(n, func(call *ast.CallExpr, which string) {
		diags = append(diags, n.File.diag(call.Pos(), id,
			"%s in %s, which already carries a context; derive from it so cancellation reaches this path",
			which, n.Name()))
	})
	return diags
}

// ctxCallerFindings is rule 2: a context-less function creating a fresh
// root while every one of its (known, non-empty) callers carries a
// context. Closures are skipped — their callers are their definition
// sites, which rule 1 already covers via scope inheritance.
func ctxCallerFindings(id string, n *CallNode) []Diagnostic {
	if n.Lit != nil || len(n.In) == 0 {
		return nil
	}
	callers := map[*CallNode]bool{}
	for _, e := range n.In {
		callers[e.Caller] = true
	}
	for c := range callers {
		if !nodeCarriesContext(c) {
			return nil
		}
	}
	var diags []Diagnostic
	contextRootCalls(n, func(call *ast.CallExpr, which string) {
		diags = append(diags, n.File.diag(call.Pos(), id,
			"%s in %s, but every caller (%d) carries a context; accept a ctx parameter instead of cutting the chain",
			which, n.Name(), len(callers)))
	})
	return diags
}

// inspectOwnBody walks a node's body without descending into nested
// function literals, which are separate graph nodes.
func inspectOwnBody(n *CallNode, fn func(ast.Node) bool) {
	if n.Body == nil {
		return
	}
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		return fn(node)
	})
}

// calleeFunc resolves a call in n's body to its *types.Func via the
// file's type info (nil for func values and builtins).
func calleeFunc(n *CallNode, call *ast.CallExpr) *types.Func {
	if n.File == nil {
		return nil
	}
	info := n.File.Package.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ctxLoopFindings is rule 3: blocking channel operations inside for
// loops with no ctx.Done() escape.
func ctxLoopFindings(id string, n *CallNode) []Diagnostic {
	var diags []Diagnostic
	inspectOwnBody(n, func(node ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := node.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		diags = append(diags, loopChanFindings(id, n, body)...)
		return true
	})
	return diags
}

// loopChanFindings scans one loop body for ctx-blind blocking channel
// operations. Receives and sends that sit inside a select are judged by
// the select (Done case or default = fine); raw ones are flagged.
func loopChanFindings(id string, n *CallNode, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	var walk func(node ast.Node, insideSelect bool)
	walk = func(root ast.Node, insideSelect bool) {
		ast.Inspect(root, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.FuncLit:
				return false // separate frame
			case *ast.SelectStmt:
				if !selectHasDoneOrDefault(node) {
					diags = append(diags, n.File.diag(node.Pos(), id,
						"select in a loop of %s has no ctx.Done() case and no default; cancellation cannot break the loop",
						n.Name()))
				}
				for _, clause := range node.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s, true)
						}
					}
				}
				return false
			case *ast.SendStmt:
				if !insideSelect {
					diags = append(diags, n.File.diag(node.Pos(), id,
						"blocking channel send in a loop of %s with no ctx.Done() escape; wrap in a select with ctx.Done()",
						n.Name()))
				}
			case *ast.UnaryExpr:
				if node.Op.String() == "<-" && !insideSelect && isChanRecv(n, node) {
					diags = append(diags, n.File.diag(node.Pos(), id,
						"blocking channel receive in a loop of %s with no ctx.Done() escape; wrap in a select with ctx.Done()",
						n.Name()))
				}
			}
			return true
		})
	}
	walk(body, false)
	return diags
}

// isChanRecv confirms a unary <- really receives from a channel (the
// parser only ever builds <- as a receive, but type info also filters
// out the time.After-style one-shot waits we still want to flag — any
// receive blocks).
func isChanRecv(n *CallNode, e *ast.UnaryExpr) bool {
	if n.File == nil {
		return true
	}
	if tv, ok := n.File.Package.Info.Types[e.X]; ok {
		_, isChan := tv.Type.Underlying().(*types.Chan)
		return isChan
	}
	return true
}

// selectHasDoneOrDefault reports whether a select can escape without a
// peer: a default clause, or a receive from some ctx-ish Done()
// channel.
func selectHasDoneOrDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		var expr ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			expr = comm.X
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				expr = comm.Rhs[0]
			}
		}
		un, ok := ast.Unparen(expr).(*ast.UnaryExpr)
		if !ok || un.Op.String() != "<-" {
			continue
		}
		if call, ok := ast.Unparen(un.X).(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				return true
			}
		}
	}
	return false
}

// ctxThreadFindings is rule 4: calls from a context-carrying function
// to a loaded ctx-accepting callee that pass no derived context.
func ctxThreadFindings(id string, n *CallNode) []Diagnostic {
	derived := derivedCtxObjects(n)
	if len(derived) == 0 {
		return nil // context exists but is unnamed (e.g. `_ context.Context`)
	}
	var diags []Diagnostic
	for _, e := range n.Out {
		if e.Kind != EdgeCall || e.Callee.External() || e.Callee.Obj == nil {
			continue
		}
		sig := signatureOf(e.Callee)
		if sig == nil || !signatureAcceptsContext(sig) {
			continue
		}
		if callPassesDerived(n, e.Site, derived) {
			continue
		}
		if argsContainFreshRoot(n, e.Site) {
			continue // rule 1 already flags the Background()/TODO() argument
		}
		diags = append(diags, n.File.diag(e.Site.Pos(), id,
			"%s calls %s without threading its ctx (the callee accepts a context.Context); cancellation will not propagate",
			n.Name(), e.Callee.Name()))
	}
	return diags
}

// signatureAcceptsContext reports whether any parameter is a
// context.Context.
func signatureAcceptsContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// derivedCtxObjects runs the forward dataflow seeding from the node's
// (and its enclosing functions') context and request parameters,
// growing through assignments until fixpoint. The result is the set of
// variable objects holding a derived context, plus the request
// parameters whose .Context() derives one.
func derivedCtxObjects(n *CallNode) map[types.Object]bool {
	if n.File == nil {
		return nil
	}
	info := n.File.Package.Info
	derived := map[types.Object]bool{}

	// Seed: ctx/req parameters of the node and every enclosing frame
	// (closures see them by capture).
	var frames []*CallNode
	for cur := n; cur != nil; cur = cur.Enclosing {
		frames = append(frames, cur)
		sig := signatureOf(cur)
		if sig == nil {
			continue
		}
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			p := params.At(i)
			if isContextType(p.Type()) || isHTTPRequestPtr(p.Type()) {
				derived[p] = true
			}
		}
	}
	if len(derived) == 0 {
		return nil
	}

	// Grow: x := <expr mentioning a derived object> adds x, for any
	// assignment in the node's own body or an enclosing frame's —
	// `ctx, cancel := context.WithCancel(base)` above a closure derives
	// a context the closure sees by capture.
	for changed := true; changed; {
		changed = false
		for _, fr := range frames {
			inspectOwnBody(fr, func(node ast.Node) bool {
				as, ok := node.(*ast.AssignStmt)
				if !ok {
					return true
				}
				rhsDerived := false
				for _, r := range as.Rhs {
					if exprMentionsDerived(info, r, derived) {
						rhsDerived = true
						break
					}
				}
				if !rhsDerived {
					return true
				}
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if obj != nil && !derived[obj] && isContextType(obj.Type()) {
							derived[obj] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	return derived
}

// exprMentionsDerived reports whether an expression references any
// derived object.
func exprMentionsDerived(info *types.Info, e ast.Expr, derived map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(node ast.Node) bool {
		if found {
			return false
		}
		if id, ok := node.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && derived[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// argsContainFreshRoot reports whether some argument of the call is (or
// contains) a context.Background()/TODO() call — already rule 1's
// finding when it appears inside a context-carrying function.
func argsContainFreshRoot(n *CallNode, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(node ast.Node) bool {
			if found {
				return false
			}
			inner, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fnObj := calleeFunc(n, inner); fnObj != nil {
				if pkg := fnObj.Pkg(); pkg != nil && pkg.Path() == "context" {
					if name := fnObj.Name(); name == "Background" || name == "TODO" {
						found = true
						return false
					}
				}
			}
			return true
		})
	}
	return found
}

// callPassesDerived reports whether any argument of the call mentions a
// derived context object.
func callPassesDerived(n *CallNode, call *ast.CallExpr, derived map[types.Object]bool) bool {
	if n.File == nil {
		return false
	}
	info := n.File.Package.Info
	for _, arg := range call.Args {
		if exprMentionsDerived(info, arg, derived) {
			return true
		}
	}
	// Method calls may thread ctx through the receiver's own state
	// (e.g. a struct field set from ctx earlier); the dataflow does not
	// track fields, so a receiver that mentions a derived object also
	// counts.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if exprMentionsDerived(info, sel.X, derived) {
			return true
		}
	}
	return false
}
