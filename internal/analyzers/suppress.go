package analyzers

import (
	"strings"
)

// BadIgnoreID is the pseudo-check ID used for malformed suppression
// comments and for ones naming no registered check, so an ineffective
// //lint:ignore never fails silently.
const BadIgnoreID = "badignore"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	line   int
	checks map[string]bool // check IDs covered; {"*": true} covers all
	reason string
}

// knownIDs is the set of IDs a directive may name: every registered
// check and the wildcard.
func knownIDs() map[string]bool {
	known := map[string]bool{"*": true}
	for _, c := range All() {
		known[c.ID] = true
	}
	return known
}

// parseIgnores extracts the suppression directives of a file and emits
// badignore diagnostics for ineffective ones: a missing check list or
// reason (an ignore without a reason is a convention the suite exists
// to prevent), or a check ID that is not registered — a typo, or a
// directive outliving its check. An ineffective directive suppresses
// nothing.
func parseIgnores(f *File, known map[string]bool) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var diags []Diagnostic
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:ignore") {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				diags = append(diags, f.diag(c.Pos(), BadIgnoreID,
					"malformed suppression %q: want //lint:ignore <check>[,<check>] <reason>", c.Text))
				continue
			}
			checks := map[string]bool{}
			var unknown []string
			for _, id := range strings.Split(fields[0], ",") {
				id = strings.TrimSpace(id)
				if !known[id] {
					unknown = append(unknown, id)
				}
				checks[id] = true
			}
			if len(unknown) > 0 {
				diags = append(diags, f.diag(c.Pos(), BadIgnoreID,
					"suppression names unknown check %q", unknown[0]))
				continue
			}
			dirs = append(dirs, ignoreDirective{
				line:   f.Fset.Position(c.Pos()).Line,
				checks: checks,
				reason: strings.Join(fields[1:], " "),
			})
		}
	}
	return dirs, diags
}

// suppress filters out diagnostics covered by an ignore directive on
// the same line or the line immediately above, the two placements a
// human reads as "about this statement".
func suppress(diags []Diagnostic, dirs []ignoreDirective) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	covered := func(d Diagnostic) bool {
		for _, dir := range dirs {
			if dir.line != d.Line && dir.line != d.Line-1 {
				continue
			}
			if dir.checks["*"] || dir.checks[d.Check] {
				return true
			}
		}
		return false
	}
	out := diags[:0]
	for _, d := range diags {
		if !covered(d) {
			out = append(out, d)
		}
	}
	return out
}
