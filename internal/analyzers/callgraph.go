package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the call graph over the typed packages the loader
// produced, built once per Pass; ctxflow is the check that walks it.
// Resolution is conservative and static — it never claims an edge it
// cannot prove, and it resolves dynamic dispatch to every candidate it
// can see:
//
//   - direct calls to package-level functions and concrete methods
//     resolve through go/types object identity;
//   - interface method calls fan out to the same-named method of every
//     loaded named type that implements the interface (plus the
//     abstract interface method itself, kept as a body-less node);
//   - function values are tracked flow-insensitively within the loaded
//     packages: every function or closure ever assigned to a variable
//     or struct field is a candidate callee at that variable's or
//     field's call sites;
//   - calls through values the tracker never saw assigned (parameters
//     of function type, externally produced callbacks) resolve to
//     nothing — the documented blind spot, see DESIGN.md §10.
//
// Functions outside the loaded packages (standard library, unloaded
// module packages) appear as body-less external nodes: the edge is
// recorded without pretending to know the callee's behavior.

// EdgeKind distinguishes how control reaches a callee.
type EdgeKind int

const (
	// EdgeCall is a plain synchronous call.
	EdgeCall EdgeKind = iota
	// EdgeGo is a goroutine launch: the caller does not wait.
	EdgeGo
	// EdgeDefer is a deferred call: it runs at function exit.
	EdgeDefer
)

// CallNode is one function in the graph: a declared function or method,
// a function literal, or a body-less external.
type CallNode struct {
	// Obj is the types object for declared functions, methods, and
	// externals; nil for function literals.
	Obj *types.Func
	// Lit is the literal for closure nodes; nil otherwise.
	Lit *ast.FuncLit

	// Body is the analyzed body; nil for externals.
	Body *ast.BlockStmt
	// File is the typed file holding Body; nil for externals.
	File *File
	// Enclosing is the node a literal is defined inside; nil for
	// declared functions and externals.
	Enclosing *CallNode

	Out []CallEdge // calls made by this node's body
	In  []CallEdge // call sites reaching this node
}

// Name renders a stable human-readable identity: the types FullName for
// declared functions, "func literal in X" for closures.
func (n *CallNode) Name() string {
	if n.Obj != nil {
		return n.Obj.FullName()
	}
	if n.Enclosing != nil {
		return "func literal in " + n.Enclosing.Name()
	}
	return "func literal"
}

// External reports whether the node has no loaded body.
func (n *CallNode) External() bool { return n.Body == nil }

// CallEdge is one resolved call site.
type CallEdge struct {
	Caller *CallNode
	Callee *CallNode
	Site   *ast.CallExpr
	Kind   EdgeKind
}

// CallGraph is the whole-program (whole-loaded-surface) call graph.
type CallGraph struct {
	// Funcs maps declared functions and externals by types object.
	Funcs map[*types.Func]*CallNode
	// Lits maps closure nodes by literal.
	Lits map[*ast.FuncLit]*CallNode
	// nodes in deterministic construction order, for stable iteration.
	nodes []*CallNode
}

// Nodes returns every node (module functions, literals, externals) in
// deterministic order.
func (g *CallGraph) Nodes() []*CallNode { return g.nodes }

// graphBuilder accumulates state across the two construction passes.
type graphBuilder struct {
	g    *CallGraph
	pkgs []*Package

	// funcValues records, per variable or struct-field object of
	// function type, every candidate function ever assigned to it.
	funcValues map[types.Object][]*CallNode

	// namedTypes is every named type of the loaded packages, the
	// candidate set for interface-call resolution.
	namedTypes []*types.Named
}

// BuildCallGraph constructs the call graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	b := &graphBuilder{
		g: &CallGraph{
			Funcs: map[*types.Func]*CallNode{},
			Lits:  map[*ast.FuncLit]*CallNode{},
		},
		pkgs:       pkgs,
		funcValues: map[types.Object][]*CallNode{},
	}
	b.collectNamedTypes()
	// Pass 1: create a node per declared function and per literal, and
	// record every function-value assignment.
	for _, p := range pkgs {
		for _, f := range p.Files {
			b.declareFile(f)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			b.collectFuncValues(f)
		}
	}
	// Pass 2: resolve call sites into edges.
	for _, p := range pkgs {
		for _, f := range p.Files {
			b.resolveFile(f)
		}
	}
	return b.g
}

// collectNamedTypes gathers the loaded packages' named types, sorted by
// name for deterministic interface fan-out order.
func (b *graphBuilder) collectNamedTypes() {
	for _, p := range b.pkgs {
		scope := p.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					b.namedTypes = append(b.namedTypes, named)
				}
			}
		}
	}
}

// declareFile creates nodes for the file's function declarations,
// every function literal nested in them, and literals initializing
// package-level variables (var handler = func(...) {...}).
func (b *graphBuilder) declareFile(f *File) {
	info := f.Package.Info
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			// Package-level var/const initializers may hold literals;
			// they have no enclosing function node.
			b.declareLits(decl, nil, f)
			continue
		}
		if fd.Body == nil {
			continue
		}
		obj, _ := info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		node := &CallNode{Obj: obj, Body: fd.Body, File: f}
		b.g.Funcs[obj] = node
		b.g.nodes = append(b.g.nodes, node)
		b.declareLits(fd.Body, node, f)
	}
}

// declareLits creates nodes for function literals under root,
// attributing each to its innermost enclosing function node (nil for
// package-level initializers).
func (b *graphBuilder) declareLits(root ast.Node, enclosing *CallNode, f *File) {
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		node := &CallNode{Lit: lit, Body: lit.Body, File: f, Enclosing: enclosing}
		b.g.Lits[lit] = node
		b.g.nodes = append(b.g.nodes, node)
		b.declareLits(lit.Body, node, f)
		return false // nested literals handled by the recursive call
	})
}

// externalNode returns (creating on demand) the body-less node of a
// function outside the loaded surface.
func (b *graphBuilder) externalNode(obj *types.Func) *CallNode {
	if n, ok := b.g.Funcs[obj]; ok {
		return n
	}
	n := &CallNode{Obj: obj}
	b.g.Funcs[obj] = n
	b.g.nodes = append(b.g.nodes, n)
	return n
}

// funcExprNode resolves an expression used as a value to a candidate
// node when the expression names a function: an identifier of a
// declared function, a method value, or a function literal.
func (b *graphBuilder) funcExprNode(info *types.Info, e ast.Expr) *CallNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return b.g.Lits[e]
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			if n, ok := b.g.Funcs[fn]; ok {
				return n
			}
			return b.externalNode(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			if n, ok := b.g.Funcs[fn]; ok {
				return n
			}
			return b.externalNode(fn)
		}
	}
	return nil
}

// assignTarget resolves the object behind an assignment destination:
// a variable identifier or a struct-field selector.
func assignTarget(info *types.Info, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Defs[lhs]; obj != nil {
			return obj
		}
		return info.Uses[lhs]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[lhs.Sel]
	}
	return nil
}

// recordFuncValue notes that target may hold candidate at runtime.
func (b *graphBuilder) recordFuncValue(target types.Object, candidate *CallNode) {
	if target == nil || candidate == nil {
		return
	}
	if _, ok := target.Type().Underlying().(*types.Signature); !ok {
		return
	}
	for _, existing := range b.funcValues[target] {
		if existing == candidate {
			return
		}
	}
	b.funcValues[target] = append(b.funcValues[target], candidate)
}

// collectFuncValues walks one file recording every assignment of a
// function to a variable or struct field, including composite-literal
// field initializers.
func (b *graphBuilder) collectFuncValues(f *File) {
	info := f.Package.Info
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				b.recordFuncValue(assignTarget(info, n.Lhs[i]), b.funcExprNode(info, n.Rhs[i]))
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i := range n.Names {
				b.recordFuncValue(info.Defs[n.Names[i]], b.funcExprNode(info, n.Values[i]))
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				b.recordFuncValue(info.Uses[key], b.funcExprNode(info, kv.Value))
			}
		}
		return true
	})
}

// resolveFile turns every call site of the file into edges.
func (b *graphBuilder) resolveFile(f *File) {
	info := f.Package.Info
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			// Package-level initializer literals are their own frames.
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					if node := b.g.Lits[lit]; node != nil {
						b.resolveBody(node, lit.Body, info)
					}
					return false // nested literals resolved via resolveBody
				}
				return true
			})
			continue
		}
		if fd.Body == nil {
			continue
		}
		obj, _ := info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		b.resolveBody(b.g.Funcs[obj], fd.Body, info)
	}
}

// resolveBody records the out-edges of one node's body, recursing into
// nested literals as their own frames.
func (b *graphBuilder) resolveBody(caller *CallNode, body *ast.BlockStmt, info *types.Info) {
	var walk func(n ast.Node, kind EdgeKind)
	walk = func(root ast.Node, kind EdgeKind) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				lit := b.g.Lits[n]
				if lit != nil {
					b.resolveBody(lit, n.Body, info)
				}
				return false
			case *ast.GoStmt:
				b.resolveCall(caller, n.Call, EdgeGo, info)
				for _, arg := range n.Call.Args {
					walk(arg, kind)
				}
				walk(n.Call.Fun, kind)
				return false
			case *ast.DeferStmt:
				b.resolveCall(caller, n.Call, EdgeDefer, info)
				for _, arg := range n.Call.Args {
					walk(arg, kind)
				}
				walk(n.Call.Fun, kind)
				return false
			case *ast.CallExpr:
				b.resolveCall(caller, n, kind, info)
				return true
			}
			return true
		})
	}
	walk(body, EdgeCall)
}

// addEdge links caller to callee, deduplicating per (site, callee).
func (b *graphBuilder) addEdge(caller, callee *CallNode, site *ast.CallExpr, kind EdgeKind) {
	if callee == nil {
		return
	}
	for _, e := range caller.Out {
		if e.Site == site && e.Callee == callee {
			return
		}
	}
	e := CallEdge{Caller: caller, Callee: callee, Site: site, Kind: kind}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// resolveCall resolves one call expression into zero or more edges.
func (b *graphBuilder) resolveCall(caller *CallNode, call *ast.CallExpr, kind EdgeKind, info *types.Info) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		// Immediately invoked literal.
		b.addEdge(caller, b.g.Lits[fun], call, kind)
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			if n, ok := b.g.Funcs[obj]; ok {
				b.addEdge(caller, n, call, kind)
			} else {
				b.addEdge(caller, b.externalNode(obj), call, kind)
			}
		case *types.Var:
			// Call through a function value: fan out to every recorded
			// candidate. Unrecorded values (parameters, external
			// callbacks) resolve to nothing — documented conservatism.
			for _, cand := range b.funcValues[obj] {
				b.addEdge(caller, cand, call, kind)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return
				}
				if types.IsInterface(sel.Recv()) {
					b.resolveInterfaceCall(caller, call, kind, sel.Recv(), fn)
					return
				}
				if n, ok := b.g.Funcs[fn]; ok {
					b.addEdge(caller, n, call, kind)
				} else {
					b.addEdge(caller, b.externalNode(fn), call, kind)
				}
			case types.FieldVal:
				// Call through a function-typed struct field.
				for _, cand := range b.funcValues[sel.Obj()] {
					b.addEdge(caller, cand, call, kind)
				}
			}
			return
		}
		// Package-qualified call (pkg.Fn) or qualified method value.
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			if n, ok := b.g.Funcs[obj]; ok {
				b.addEdge(caller, n, call, kind)
			} else {
				b.addEdge(caller, b.externalNode(obj), call, kind)
			}
		case *types.Var:
			for _, cand := range b.funcValues[obj] {
				b.addEdge(caller, cand, call, kind)
			}
		}
	}
}

// resolveInterfaceCall fans an interface method call out to the
// same-named method of every loaded named type implementing the
// interface, plus the abstract method itself as an external node, so
// the call keeps an edge even when no loaded type implements it.
func (b *graphBuilder) resolveInterfaceCall(caller *CallNode, call *ast.CallExpr, kind EdgeKind, recv types.Type, ifaceMethod *types.Func) {
	b.addEdge(caller, b.externalNode(ifaceMethod), call, kind)
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, named := range b.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, ifaceMethod.Pkg(), ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok {
			if n, ok := b.g.Funcs[m]; ok {
				b.addEdge(caller, n, call, kind)
			}
		}
	}
}
