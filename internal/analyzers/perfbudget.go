package analyzers

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the compiler-diagnostics perf budget behind
// cmd/lint -perfbudget: it rebuilds the //lint:hot packages with
// `-gcflags='-m=1 -d=ssa/check_bce/debug=1'`, parses the compiler's
// escape-analysis and bounds-check reports into a per-hot-function
// inventory, and diffs that against budgets committed under
// testdata/perfbudget. A new heap escape or bounds check in a hot
// function fails the gate; dropping below budget is reported so the
// budget can be tightened. The Go build cache replays these
// diagnostics on cached builds, so the gate costs one no-op build
// when nothing changed.

// PerfCounts is the per-function diagnostic inventory.
type PerfCounts struct {
	Escapes      int `json:"escapes"`
	BoundsChecks int `json:"bounds_checks"`
}

// PerfBudget is the committed (or freshly collected) inventory of one
// package's hot functions.
type PerfBudget struct {
	Version   int                   `json:"version"`
	Package   string                `json:"package"`
	Functions map[string]PerfCounts `json:"functions"`
}

// BudgetFileName maps an import path to its budget file name.
func BudgetFileName(importPath string) string {
	return strings.ReplaceAll(importPath, "/", "_") + ".json"
}

// LoadPerfBudget reads a budget file. A missing file returns an empty
// budget — every nonzero count in a new hot function then fails the
// diff until a budget is written.
func LoadPerfBudget(path string) (PerfBudget, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return PerfBudget{Version: 1}, nil
	}
	if err != nil {
		return PerfBudget{}, fmt.Errorf("analyzers: reading perf budget: %w", err)
	}
	var b PerfBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return PerfBudget{}, fmt.Errorf("analyzers: parsing perf budget %s: %w", path, err)
	}
	return b, nil
}

// Save writes the budget as indented JSON.
func (b PerfBudget) Save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hotDirective is the comment directive marking hot-path code:
// `//lint:hot` above the package clause marks every function in the
// file, above (or in the doc comment of) a function declaration marks
// that function.
const hotDirective = "lint:hot"

// hotMarks is the resolved //lint:hot annotation state of one file.
type hotMarks struct {
	fileHot bool
	lines   map[int]bool // lines carrying a directive
}

// hotMarksOf scans a file's comments for //lint:hot directives.
func hotMarksOf(f *File) hotMarks {
	m := hotMarks{lines: map[int]bool{}}
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if strings.TrimSpace(text) != hotDirective {
				continue
			}
			if c.End() <= f.AST.Package {
				m.fileHot = true
				continue
			}
			m.lines[f.Fset.Position(c.Pos()).Line] = true
		}
	}
	return m
}

// hot reports whether a declaration is marked hot: the file is hot, a
// directive sits on the line above the declaration, or one sits inside
// its doc comment.
func (m hotMarks) hot(d *ast.FuncDecl, fset *token.FileSet) bool {
	if m.fileHot {
		return true
	}
	if m.lines[fset.Position(d.Pos()).Line-1] {
		return true
	}
	if d.Doc != nil {
		start := fset.Position(d.Doc.Pos()).Line
		end := fset.Position(d.Doc.End()).Line
		for l := start; l <= end; l++ {
			if m.lines[l] {
				return true
			}
		}
	}
	return false
}

// funcDeclName renders a declaration the way budgets key it: "Name" or
// "(Recv).Name" / "(*Recv).Name".
func funcDeclName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	return "(" + exprString(recv) + ")." + d.Name.Name
}

// hotFuncRange locates one hot function's lines within a file.
type hotFuncRange struct {
	file       string // as parsed (loader-relative)
	start, end int
	name       string
}

// hotFuncRangesOf returns the line ranges of every //lint:hot function
// of a loaded package (all functions of a file-hot file).
func hotFuncRangesOf(pkg *Package) []hotFuncRange {
	var out []hotFuncRange
	for _, f := range pkg.Files {
		marks := hotMarksOf(f)
		for _, decl := range f.AST.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil || !marks.hot(d, f.Fset) {
				continue
			}
			out = append(out, hotFuncRange{
				file:  f.Path,
				start: f.Fset.Position(d.Pos()).Line,
				end:   f.Fset.Position(d.End()).Line,
				name:  funcDeclName(d),
			})
		}
	}
	return out
}

// HotPackages filters a loaded surface down to the packages with at
// least one //lint:hot function.
func HotPackages(pkgs []*Package) []*Package {
	var out []*Package
	for _, p := range pkgs {
		if len(hotFuncRangesOf(p)) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// perfDiag is one parsed compiler diagnostic.
type perfDiag struct {
	file    string
	line    int
	message string
}

// parsePerfDiags extracts escape and bounds-check diagnostics from
// `go build -gcflags='-m=1 -d=ssa/check_bce/debug=1'` output. Inlining
// chatter and leaking-param notes are not budgeted: params that leak
// are an API property, not a per-iteration allocation.
func parsePerfDiags(output string) (escapes, bounds []perfDiag) {
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// path:line:col: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		msg := strings.TrimSpace(parts[3])
		d := perfDiag{file: parts[0], line: ln, message: msg}
		switch {
		case strings.Contains(msg, "escapes to heap"), strings.Contains(msg, "moved to heap"):
			escapes = append(escapes, d)
		case strings.HasPrefix(msg, "Found IsInBounds"), strings.HasPrefix(msg, "Found IsSliceInBounds"):
			bounds = append(bounds, d)
		}
	}
	return escapes, bounds
}

// inventoryFrom buckets parsed diagnostics into the hot functions of a
// package. Paths are compared cleaned; a diagnostic outside every hot
// function's range is not budgeted.
func inventoryFrom(pkg *Package, escapes, bounds []perfDiag) PerfBudget {
	ranges := hotFuncRangesOf(pkg)
	b := PerfBudget{Version: 1, Package: pkg.Path, Functions: map[string]PerfCounts{}}
	for _, r := range ranges {
		b.Functions[r.name] = PerfCounts{}
	}
	locate := func(d perfDiag) string {
		dp := filepath.Clean(d.file)
		for _, r := range ranges {
			if d.line < r.start || d.line > r.end {
				continue
			}
			rp := filepath.Clean(r.file)
			if rp == dp || filepath.Base(rp) == filepath.Base(dp) {
				return r.name
			}
		}
		return ""
	}
	for _, d := range escapes {
		if name := locate(d); name != "" {
			c := b.Functions[name]
			c.Escapes++
			b.Functions[name] = c
		}
	}
	for _, d := range bounds {
		if name := locate(d); name != "" {
			c := b.Functions[name]
			c.BoundsChecks++
			b.Functions[name] = c
		}
	}
	return b
}

// CollectPerfInventory compiles one hot package with diagnostics on
// and returns the per-hot-function inventory.
func CollectPerfInventory(modRoot string, pkg *Package) (PerfBudget, error) {
	cmd := exec.Command("go", "build",
		"-gcflags="+pkg.Path+"=-m=1 -d=ssa/check_bce/debug=1", pkg.Path)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return PerfBudget{}, fmt.Errorf("analyzers: go build %s: %v\n%s", pkg.Path, err, out)
	}
	escapes, bounds := parsePerfDiags(string(out))
	return inventoryFrom(pkg, escapes, bounds), nil
}

// DiffPerfBudget compares a current inventory against the committed
// budget: failures are regressions (counts above budget, or a new hot
// function with nonzero counts and no budget line); improvements are
// counts now below budget, so it can be ratcheted down.
func DiffPerfBudget(budget, current PerfBudget) (failures, improvements []string) {
	names := make([]string, 0, len(current.Functions))
	for name := range current.Functions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cur := current.Functions[name]
		want, ok := budget.Functions[name]
		if !ok && (cur.Escapes > 0 || cur.BoundsChecks > 0) {
			failures = append(failures,
				fmt.Sprintf("%s %s: no committed budget but %d escape(s), %d bounds check(s); fix them or run -write-perfbudget",
					current.Package, name, cur.Escapes, cur.BoundsChecks))
			continue
		}
		if cur.Escapes > want.Escapes {
			failures = append(failures,
				fmt.Sprintf("%s %s: %d heap escape(s), budget %d (+%d)",
					current.Package, name, cur.Escapes, want.Escapes, cur.Escapes-want.Escapes))
		} else if cur.Escapes < want.Escapes {
			improvements = append(improvements,
				fmt.Sprintf("%s %s: %d heap escape(s), budget %d — tighten the budget",
					current.Package, name, cur.Escapes, want.Escapes))
		}
		if cur.BoundsChecks > want.BoundsChecks {
			failures = append(failures,
				fmt.Sprintf("%s %s: %d bounds check(s), budget %d (+%d)",
					current.Package, name, cur.BoundsChecks, want.BoundsChecks, cur.BoundsChecks-want.BoundsChecks))
		} else if cur.BoundsChecks < want.BoundsChecks {
			improvements = append(improvements,
				fmt.Sprintf("%s %s: %d bounds check(s), budget %d — tighten the budget",
					current.Package, name, cur.BoundsChecks, want.BoundsChecks))
		}
	}
	return failures, improvements
}

// FindModuleRoot walks up from a directory to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analyzers: no go.mod found above %s", dir)
		}
		abs = parent
	}
}
