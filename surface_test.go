// Package repro's only test holds the tree to DESIGN.md §3's rule: code
// stays iff a root reaches it through non-test code. The roots are bench/
// and the commands of §3's table, which is read from DESIGN.md so that
// the reasons are written once.
package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// goDirs maps every directory of the module that holds non-test Go
// (testdata trees excluded) to the directories of the module its files
// import.
func goDirs(t *testing.T) map[string][]string {
	t.Helper()
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(mod)
	if m == nil {
		t.Fatal("go.mod names no module")
	}
	prefix := string(m[1]) + "/"
	dirs := map[string][]string{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		deps := dirs[dir]
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, prefix) {
				deps = append(deps, strings.TrimPrefix(p, prefix))
			}
		}
		dirs[dir] = deps // a key even when it imports nothing of the module
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// rootCommands returns the commands of DESIGN.md §3's root table: the
// rows "| `cmd/<name>` | <reason> |", each with a reason.
func rootCommands(t *testing.T) []string {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, row := range regexp.MustCompile("(?m)^\\| `cmd/([a-z]+)` \\|([^|]*)\\|$").FindAllSubmatch(design, -1) {
		if strings.TrimSpace(string(row[2])) == "" {
			t.Errorf("DESIGN.md §3: root cmd/%s states no reason", row[1])
		}
		cmds = append(cmds, string(row[1]))
	}
	slices.Sort(cmds)
	return cmds
}

func TestEveryCommandIsAJustifiedRoot(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, e := range entries {
		if e.IsDir() {
			have = append(have, e.Name())
		}
	}
	if want := rootCommands(t); !slices.Equal(have, want) {
		t.Errorf("directories under cmd/ and DESIGN.md §3's root table differ:\n cmd/: %v\ntable: %v\n"+
			"a command needs a row saying what it is a root for; a row needs its command", have, want)
	}
}

func TestEveryInternalPackageIsReachedFromARoot(t *testing.T) {
	imports := goDirs(t)
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		for _, dep := range imports[dir] {
			visit(dep)
		}
	}
	visit("bench")
	for _, c := range rootCommands(t) {
		visit("cmd/" + c)
	}
	for dir := range imports {
		if strings.HasPrefix(dir, "internal/") && !reached[dir] {
			t.Errorf("%s is imported by no root (bench/, DESIGN.md §3's commands) through non-test code: "+
				"examples and tests justify nothing — delete it or give a root a use for it", dir)
		}
	}
}
