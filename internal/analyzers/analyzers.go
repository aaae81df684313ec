// Package analyzers is a stdlib-only static-analysis suite for this
// repository. It keeps the checks that guard what the reproduction
// rests on and no test can: seeded replay that is byte-for-byte the
// same (nodeterm), spans that end (spanend), the unit of every quantity
// in the paper's equations (unitflow), and request contexts that reach
// every blocking call (ctxflow). DESIGN.md §11 tables each check with
// the invariant it guards and the defect history that earned it; the
// compiler-diagnostics perf budget (perfbudget.go) is the suite's
// other gate.
//
// Every check runs over one typed load of the matched packages (Load)
// and the call graph built over it, and every finding can be
// suppressed in place with
//
//	//lint:ignore <check> <reason>
//
// on (or immediately above) the flagged line.
package analyzers

import (
	"fmt"
	"sort"
)

// Diagnostic is one finding: where, which check, what.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Pass is what every check sees: the typed packages of one load and
// the call graph over them.
type Pass struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// eachFile runs a per-file rule over every loaded file.
func eachFile(rule func(*File) []Diagnostic) func(*Pass) []Diagnostic {
	return func(p *Pass) []Diagnostic {
		var diags []Diagnostic
		for _, pkg := range p.Pkgs {
			for _, f := range pkg.Files {
				diags = append(diags, rule(f)...)
			}
		}
		return diags
	}
}

// Check is one analyzer: the ID named in //lint:ignore directives, a
// one-line doc string, and the run function.
type Check struct {
	ID  string
	Doc string
	Run func(*Pass) []Diagnostic
}

// All returns every registered check, sorted by ID.
func All() []Check {
	return []Check{
		checkCtxFlow(),
		checkNoDeterm(),
		checkSpanEnd(),
		checkUnitFlow(),
	}
}

// Result is one lint run over a set of packages.
type Result struct {
	Diags []Diagnostic // suppressed findings already filtered out
	Files int          // number of files analyzed
}

// Run lints the directories matched by the given package patterns (see
// Load) with every registered check.
func Run(patterns []string) (Result, error) {
	pkgs, err := Load(patterns)
	if err != nil {
		return Result{}, err
	}
	res := Result{Diags: lint(pkgs, All())}
	for _, p := range pkgs {
		res.Files += len(p.Files)
	}
	return res, nil
}

// lint runs the checks over loaded packages, applies each file's
// //lint:ignore directives once, and sorts the survivors.
func lint(pkgs []*Package, checks []Check) []Diagnostic {
	pass := &Pass{Pkgs: pkgs, Graph: BuildCallGraph(pkgs)}
	byFile := map[string][]Diagnostic{}
	for _, c := range checks {
		for _, d := range c.Run(pass) {
			byFile[d.File] = append(byFile[d.File], d)
		}
	}
	known := knownIDs()
	var out []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			dirs, bad := parseIgnores(f, known)
			out = append(out, bad...)
			out = append(out, suppress(byFile[f.Path], dirs)...)
		}
	}
	sortDiags(out)
	return out
}

// sortDiags orders diagnostics for stable output: file, line, col,
// check.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}
