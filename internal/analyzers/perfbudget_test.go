package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBudgetFileName(t *testing.T) {
	if got := BudgetFileName("repro/internal/lbm"); got != "repro_internal_lbm.json" {
		t.Errorf("BudgetFileName = %q", got)
	}
	if got := BudgetFileName("single"); got != "single.json" {
		t.Errorf("BudgetFileName = %q", got)
	}
}

// TestParsePerfDiags feeds canned `go build -gcflags='-m=1
// -d=ssa/check_bce/debug=1'` output: only escape and bounds-check
// diagnostics are budgeted, never inlining chatter, leaking-param
// notes, or package headers.
func TestParsePerfDiags(t *testing.T) {
	out := `# repro/internal/lbm
internal/lbm/proxy.go:10:6: can inline (*Proxy).slot
internal/lbm/proxy.go:20:13: inlining call to Equilibrium
internal/lbm/proxy.go:30:7: leaking param: p
internal/lbm/proxy.go:41:2: moved to heap: buf
internal/lbm/proxy.go:52:15: make([]float64, n) escapes to heap
internal/lbm/proxy.go:63:9: Found IsInBounds
internal/lbm/proxy.go:63:21: Found IsInBounds
internal/lbm/proxy.go:74:12: Found IsSliceInBounds
not a diagnostic line
internal/lbm/proxy.go:bad:1: Found IsInBounds
`
	escapes, bounds := parsePerfDiags(out)
	if len(escapes) != 2 {
		t.Fatalf("escapes = %d, want 2: %v", len(escapes), escapes)
	}
	if escapes[0].line != 41 || !strings.Contains(escapes[0].message, "moved to heap") {
		t.Errorf("escape[0] = %+v", escapes[0])
	}
	if escapes[1].line != 52 || !strings.Contains(escapes[1].message, "escapes to heap") {
		t.Errorf("escape[1] = %+v", escapes[1])
	}
	if len(bounds) != 3 {
		t.Fatalf("bounds = %d, want 3: %v", len(bounds), bounds)
	}
	for _, b := range bounds {
		if b.file != "internal/lbm/proxy.go" {
			t.Errorf("bounds diag file = %q", b.file)
		}
	}
}

func TestLoadPerfBudgetMissing(t *testing.T) {
	b, err := LoadPerfBudget(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing budget must not error: %v", err)
	}
	if b.Version != 1 || len(b.Functions) != 0 {
		t.Errorf("missing budget must load empty, got %+v", b)
	}
}

func TestPerfBudgetSaveLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "b.json")
	in := PerfBudget{
		Version: 1,
		Package: "repro/internal/lbm",
		Functions: map[string]PerfCounts{
			"(*Proxy).Step": {Escapes: 4, BoundsChecks: 0},
			"pull":          {Escapes: 0, BoundsChecks: 7},
		},
	}
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	out, err := LoadPerfBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Package != in.Package || len(out.Functions) != 2 {
		t.Fatalf("roundtrip lost data: %+v", out)
	}
	if out.Functions["pull"] != (PerfCounts{BoundsChecks: 7}) {
		t.Errorf("pull = %+v", out.Functions["pull"])
	}
}

func TestLoadPerfBudgetCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPerfBudget(path); err == nil {
		t.Fatal("corrupt budget must error")
	}
}

func TestDiffPerfBudget(t *testing.T) {
	budget := PerfBudget{
		Version: 1,
		Package: "p",
		Functions: map[string]PerfCounts{
			"steady":   {Escapes: 1, BoundsChecks: 2},
			"improved": {Escapes: 3, BoundsChecks: 3},
			"worse":    {Escapes: 0, BoundsChecks: 1},
		},
	}
	current := PerfBudget{
		Version: 1,
		Package: "p",
		Functions: map[string]PerfCounts{
			"steady":   {Escapes: 1, BoundsChecks: 2},
			"improved": {Escapes: 0, BoundsChecks: 3},
			"worse":    {Escapes: 2, BoundsChecks: 5},
			"newClean": {},
			"newDirty": {Escapes: 1, BoundsChecks: 0},
		},
	}
	failures, improvements := DiffPerfBudget(budget, current)
	if len(failures) != 3 {
		t.Fatalf("failures = %d, want 3:\n%s", len(failures), strings.Join(failures, "\n"))
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "worse: 2 heap escape(s), budget 0 (+2)") {
		t.Errorf("missing escape regression in:\n%s", joined)
	}
	if !strings.Contains(joined, "worse: 5 bounds check(s), budget 1 (+4)") {
		t.Errorf("missing bounds regression in:\n%s", joined)
	}
	if !strings.Contains(joined, "newDirty: no committed budget") ||
		!strings.Contains(joined, "-write-perfbudget") {
		t.Errorf("missing unbudgeted-function failure in:\n%s", joined)
	}
	if strings.Contains(joined, "newClean") {
		t.Errorf("a new hot function with zero counts must pass:\n%s", joined)
	}
	if len(improvements) != 1 || !strings.Contains(improvements[0], "improved: 0 heap escape(s), budget 3") ||
		!strings.Contains(improvements[0], "tighten the budget") {
		t.Errorf("improvements = %v", improvements)
	}
}

// TestInventoryFromBuckets pins the line-range attribution: a
// diagnostic lands in the hot function whose range covers its line and
// whose file matches; everything else is unbudgeted.
func TestInventoryFromBuckets(t *testing.T) {
	pkgs, err := Load([]string{filepath.Join("testdata", "hot")})
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	ranges := hotFuncRangesOf(pkg)
	if len(ranges) != 2 {
		t.Fatalf("hot fixture: %d hot function(s), want 2", len(ranges))
	}
	r := ranges[0]
	escapes := []perfDiag{
		{file: r.file, line: r.start + 1, message: "moved to heap: x"},
		// Same line, wrong file: must not be attributed.
		{file: "elsewhere.go", line: r.start + 1, message: "moved to heap: x"},
		// Right file, line outside every hot range.
		{file: r.file, line: 1_000_000, message: "moved to heap: x"},
	}
	bounds := []perfDiag{
		{file: r.file, line: r.start + 1, message: "Found IsSliceInBounds"},
	}
	inv := inventoryFrom(pkg, escapes, bounds)
	if inv.Package != pkg.Path {
		t.Errorf("inventory package = %q, want %q", inv.Package, pkg.Path)
	}
	if got := inv.Functions[r.name]; got != (PerfCounts{Escapes: 1, BoundsChecks: 1}) {
		t.Errorf("%s = %+v, want 1 escape, 1 bounds check", r.name, got)
	}
	totalEsc := 0
	for _, c := range inv.Functions {
		totalEsc += c.Escapes
	}
	if totalEsc != 1 {
		t.Errorf("mis-attributed escapes: total %d, want 1", totalEsc)
	}
	// Every hot function appears with an explicit (possibly zero) entry
	// so a budget line exists to ratchet against.
	if len(inv.Functions) != len(ranges) {
		t.Errorf("inventory has %d function(s), want %d", len(inv.Functions), len(ranges))
	}
}

// seededModule writes a one-package module under dir and returns a
// hand-built Package for it (the perfbudget path only needs the parsed
// AST for hot ranges, not type information).
func seededModule(t *testing.T, dir, src string) *Package {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmphot\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "hot.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{
		Dir:   dir,
		Path:  "tmphot",
		Fset:  fset,
		Files: []*File{{Fset: fset, AST: af, Path: path}},
	}
}

// TestSeededRegressionFailsGate is the end-to-end acceptance check:
// budget a clean hot package, seed a heap escape and a bounds check
// into it, and the recollected inventory must fail the diff.
func TestSeededRegressionFailsGate(t *testing.T) {
	dir := t.TempDir()
	clean := `package tmphot

//lint:hot
func Grow() int {
	x := 42
	return x
}

//lint:hot
func Sum(xs []int) int {
	t := 0
	for _, v := range xs {
		t += v
	}
	return t
}
`
	pkg := seededModule(t, dir, clean)
	budget, err := CollectPerfInventory(dir, pkg)
	if err != nil {
		t.Fatalf("collecting clean inventory: %v", err)
	}
	if c := budget.Functions["Grow"]; c != (PerfCounts{}) {
		t.Fatalf("clean Grow = %+v, want zero", c)
	}
	if c := budget.Functions["Sum"]; c != (PerfCounts{}) {
		t.Fatalf("clean Sum = %+v, want zero", c)
	}

	regressed := `package tmphot

//lint:hot
func Grow() *int {
	x := 42
	return &x
}

//lint:hot
func Sum(xs []int, n int) int {
	t := 0
	for i := 0; i < n; i++ {
		t += xs[i]
	}
	return t
}
`
	pkg2 := seededModule(t, dir, regressed)
	current, err := CollectPerfInventory(dir, pkg2)
	if err != nil {
		t.Fatalf("collecting regressed inventory: %v", err)
	}
	if c := current.Functions["Grow"]; c.Escapes < 1 {
		t.Fatalf("seeded escape not reported: Grow = %+v", c)
	}
	if c := current.Functions["Sum"]; c.BoundsChecks < 1 {
		t.Fatalf("seeded bounds check not reported: Sum = %+v", c)
	}
	failures, _ := DiffPerfBudget(budget, current)
	if len(failures) != 2 {
		t.Fatalf("gate must fail on both seeded regressions, got %d:\n%s",
			len(failures), strings.Join(failures, "\n"))
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "Grow") || !strings.Contains(joined, "heap escape(s)") {
		t.Errorf("missing Grow escape failure:\n%s", joined)
	}
	if !strings.Contains(joined, "Sum") || !strings.Contains(joined, "bounds check(s)") {
		t.Errorf("missing Sum bounds failure:\n%s", joined)
	}

	// The regressed inventory passes against itself: writing a fresh
	// budget is always a valid (if lamentable) way out.
	if refail, _ := DiffPerfBudget(current, current); len(refail) != 0 {
		t.Errorf("inventory must pass against its own budget:\n%s", strings.Join(refail, "\n"))
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("FindModuleRoot returned %s without a go.mod", root)
	}
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Error("FindModuleRoot must fail with no go.mod above")
	}
}

func TestHotPackagesFilters(t *testing.T) {
	pkgs, err := Load([]string{
		filepath.Join("testdata", "hot"),
		filepath.Join("testdata", "module", "stat"),
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := HotPackages(pkgs)
	if len(hot) != 1 || !strings.HasSuffix(hot[0].Dir, filepath.Join("testdata", "hot")) {
		t.Fatalf("HotPackages must keep only the marked package, got %d", len(hot))
	}
}

// TestHotMarks pins the //lint:hot directive's resolution rules:
// file-level above the package clause, function-level on the line
// above a declaration or inside its doc comment.
func TestHotMarks(t *testing.T) {
	src := `//lint:hot
package p

func everyFn() {}
`
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, "hot.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	m := hotMarksOf(&File{Fset: fset, AST: af, Path: "hot.go"})
	if !m.fileHot {
		t.Error("directive above the package clause must mark the whole file")
	}

	src2 := `package p

//lint:hot
func marked() {}

// documented is described here.
//
//lint:hot
func documented() {}

func unmarked() {}
`
	af2, err := parser.ParseFile(fset, "hot2.go", src2, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	m2 := hotMarksOf(&File{Fset: fset, AST: af2, Path: "hot2.go"})
	if m2.fileHot {
		t.Error("function-level directives must not mark the file")
	}
	for _, d := range af2.Decls {
		fd := d.(*ast.FuncDecl)
		want := fd.Name.Name != "unmarked"
		if got := m2.hot(fd, fset); got != want {
			t.Errorf("hot(%s) = %v, want %v", fd.Name.Name, got, want)
		}
	}
}
