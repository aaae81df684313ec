package analyzers

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzSuppressDirective throws arbitrary comment text at the
// //lint:ignore parser and checks its invariants: no panic, every
// parsed directive is well-formed (non-empty set of registered check
// IDs, non-empty reason, positive line), every emitted diagnostic is a
// badignore, and each lint:ignore comment is accounted for exactly
// once — either parsed or reported ineffective, never both, never
// neither.
func FuzzSuppressDirective(f *testing.F) {
	f.Add("lint:ignore unitflow exact comparison is the point")
	f.Add("lint:ignore unitflow,nodeterm both silenced")
	f.Add("lint:ignore * everything")
	f.Add("lint:ignore nosuchcheck stale directive")
	f.Add("lint:ignore unitflow")
	f.Add("lint:ignore")
	f.Add("lint:ignoreX not-a-directive trailing")
	f.Add("  lint:ignore   spaced   out   reason  ")
	f.Add("lint:ignore , empty-ids reason")
	f.Add("not a directive at all")
	f.Fuzz(func(t *testing.T, comment string) {
		// Keep the comment on one line so it stays a single //-comment.
		line := strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, comment)
		src := "package p\n\n// " + line + "\nfunc f() {}\n"
		fset := token.NewFileSet()
		af, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip() // the comment broke the file some other way
		}
		known := knownIDs()
		dirs, diags := parseIgnores(&File{Fset: fset, AST: af, Path: "fuzz.go"}, known)

		directiveComments := 0
		for _, cg := range af.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if strings.HasPrefix(text, "lint:ignore") {
					directiveComments++
				}
			}
		}
		if got := len(dirs) + len(diags); got != directiveComments {
			t.Fatalf("%d directive comment(s) produced %d directive(s) + %d diagnostic(s)",
				directiveComments, len(dirs), len(diags))
		}
		for _, d := range dirs {
			if len(d.checks) == 0 {
				t.Errorf("directive with empty check set from %q", comment)
			}
			for id := range d.checks {
				if !known[id] {
					t.Errorf("directive accepted unknown check %q from %q", id, comment)
				}
			}
			if strings.TrimSpace(d.reason) == "" {
				t.Errorf("directive with empty reason from %q", comment)
			}
			if d.line <= 0 {
				t.Errorf("directive with line %d from %q", d.line, comment)
			}
		}
		for _, d := range diags {
			if d.Check != BadIgnoreID {
				t.Errorf("non-badignore diagnostic %q from %q", d.Check, comment)
			}
		}
	})
}
