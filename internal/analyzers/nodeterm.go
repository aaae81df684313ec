package analyzers

import (
	"go/ast"
	"go/token"
)

// deterministicPkgs are the packages whose behavior must be a pure
// function of their inputs and a caller-supplied seed: the fleet
// scheduler promises byte-identical runs under a fixed seed, and every
// layer it builds on (simulated cloud, performance models, campaign
// driver) inherits that contract.
var deterministicPkgs = map[string]bool{
	"fleet":     true,
	"simcloud":  true,
	"perfmodel": true,
	"cloud":     true,
	"campaign":  true,
}

// randConstructors are the math/rand functions that build seeded
// generators rather than consuming the global source.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// checkNoDeterm flags nondeterminism leaks in deterministic packages:
// calls into the global math/rand source (rand.Intn, rand.Float64, ...
// anything but the seeded constructors), wall-clock reads (time.Now,
// time.Since), and iteration over maps whose order escapes into output
// (appends or writes inside a range-over-map body) without a
// subsequent sort.
func checkNoDeterm() Check {
	const id = "nodeterm"
	return Check{
		ID:  id,
		Doc: "no global math/rand, wall clock, or unsorted map-order output in deterministic packages (fleet, simcloud, perfmodel, cloud, campaign)",
		Run: eachFile(func(f *File) []Diagnostic {
			pkgName := f.AST.Name.Name
			if !deterministicPkgs[pkgName] {
				return nil
			}
			var diags []Diagnostic
			randName := importName(f.AST, "math/rand")
			randV2 := importName(f.AST, "math/rand/v2")
			timeName := importName(f.AST, "time")

			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch {
				case (pkg.Name == randName && randName != "") || (pkg.Name == randV2 && randV2 != ""):
					if !randConstructors[sel.Sel.Name] {
						diags = append(diags, f.diag(call.Pos(), id,
							"call to global %s.%s in deterministic package %s; thread a seeded *rand.Rand instead",
							pkg.Name, sel.Sel.Name, pkgName))
					}
				case pkg.Name == timeName && timeName != "":
					switch sel.Sel.Name {
					case "Now", "Since":
						diags = append(diags, f.diag(call.Pos(), id,
							"wall-clock time.%s in deterministic package %s; inject a clock or use simulated time",
							sel.Sel.Name, pkgName))
					}
				}
				return true
			})

			funcDecls(f.AST, func(name string, ftype *ast.FuncType, body *ast.BlockStmt) {
				diags = append(diags, mapOrderFindings(f, id, ftype, body)...)
			})
			return diags
		}),
	}
}

// mapOrderFindings flags range-over-map loops whose visit order leaks
// into observable output. go/ast carries no type information, so a
// "map" is what the function body proves syntactically: a parameter or
// variable declared with a map type, or assigned from make(map...) or
// a map literal. Order is considered to leak when the loop body appends
// to a slice or writes through a printer/builder; an append target that
// is later passed to a sort call is forgiven, since sorting launders
// the order.
func mapOrderFindings(f *File, id string, ftype *ast.FuncType, body *ast.BlockStmt) []Diagnostic {
	maps := map[string]bool{}
	if ftype.Params != nil {
		for _, p := range ftype.Params.List {
			if _, ok := p.Type.(*ast.MapType); ok {
				for _, n := range p.Names {
					maps[n.Name] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, lhs := range n.Lhs {
				if name, ok := lhs.(*ast.Ident); ok && isMapExpr(n.Rhs[i]) {
					maps[name.Name] = true
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if _, ok := vs.Type.(*ast.MapType); ok {
						for _, n := range vs.Names {
							maps[n.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	if len(maps) == 0 {
		return nil
	}

	// Identifiers handed to a sort call anywhere in the function: their
	// order has been laundered.
	sorted := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, fn := calleeOf(call)
		if (recv == "sort" || recv == "slices") && fn != "" && len(call.Args) > 0 {
			if arg, ok := call.Args[0].(*ast.Ident); ok {
				sorted[arg.Name] = true
			}
		}
		return true
	})

	var diags []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		subj, ok := rng.X.(*ast.Ident)
		if !ok || !maps[subj.Name] {
			return true
		}
		escape, target := orderEscapes(rng.Body)
		if !escape || (target != "" && sorted[target]) {
			return true
		}
		diags = append(diags, f.diag(rng.Pos(), id,
			"iteration over map %s produces order-dependent output; collect and sort keys first", subj.Name))
		return true
	})
	return diags
}

// isMapExpr reports whether an expression syntactically constructs a
// map: make(map[...]...), a map composite literal, or a conversion of
// either.
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, isMap := e.Args[0].(*ast.MapType)
			return isMap
		}
	case *ast.CompositeLit:
		_, isMap := e.Type.(*ast.MapType)
		return isMap
	}
	return false
}

// orderEscapes reports whether a range body makes iteration order
// observable — appending to a slice, writing to a builder/printer, or
// sending on a channel — and names the append target when there is one.
func orderEscapes(body *ast.BlockStmt) (escape bool, appendTarget string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			escape = true
		case *ast.CallExpr:
			recv, fn := calleeOf(n)
			switch {
			case recv == "" && fn == "append":
				escape = true
				if len(n.Args) > 0 {
					if t, ok := n.Args[0].(*ast.Ident); ok {
						appendTarget = t.Name
					}
				}
			case recv == "fmt" && (fn == "Print" || fn == "Println" || fn == "Printf" ||
				fn == "Fprint" || fn == "Fprintln" || fn == "Fprintf"):
				escape = true
			case fn == "WriteString" || fn == "WriteByte" || fn == "WriteRune":
				escape = true
			}
		}
		return true
	})
	return escape, appendTarget
}
