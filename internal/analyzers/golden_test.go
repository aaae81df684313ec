package analyzers

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// lintDir loads one testdata directory and runs the named checks over
// it (every registered check when ids is empty), suppression applied.
func lintDir(t *testing.T, dir string, ids ...string) []Diagnostic {
	t.Helper()
	pkgs, err := Load([]string{dir})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	checks := All()
	if len(ids) > 0 {
		checks = slices.DeleteFunc(checks, func(c Check) bool { return !slices.Contains(ids, c.ID) })
		if len(checks) != len(ids) {
			t.Fatalf("unknown check among %v", ids)
		}
	}
	return lint(pkgs, checks)
}

// golden is one fixture directory under testdata, the check its dirty/
// half exercises, and the findings that check must report there, in
// order.
type golden struct {
	fixture string
	check   string
	want    []goldenWant
}

type goldenWant struct {
	file   string
	line   int
	substr string
}

// The golden fixtures, grouped by what of a Pass their check reads: one
// file's syntax (nodeterm, spanend, and unitflow's naming rules, once
// the unitsuffix check), types flowing between declarations (unitflow),
// or the call graph (ctxflow).
var (
	syntaxGoldens = []golden{
		{fixture: "nodeterm", check: "nodeterm", want: []goldenWant{
			{"dirty.go", 12, "rand.Shuffle"},
			{"dirty.go", 16, "rand.Float64"},
			{"dirty.go", 20, "time.Now"},
			{"dirty.go", 21, "time.Since"},
			{"dirty.go", 26, "order-dependent"},
			{"dirty.go", 34, "order-dependent"},
		}},
		{fixture: "spanend", check: "spanend", want: []goldenWant{
			{"dirty.go", 22, "discarded"},
			{"dirty.go", 26, "discarded"},
			{"dirty.go", 30, "return path before sp.End"},
			{"dirty.go", 39, "no End on the fallthrough path"},
		}},
		{fixture: "unitsuffix", check: "unitflow", want: []goldenWant{
			{"dirty.go", 8, `exported field Envelope.Limit is documented in "dollars" but its name carries no unit suffix`},
			{"dirty.go", 9, `exported field Envelope.Used is documented in "dollars"`},
			{"dirty.go", 14, `exported field Transfer.Elapsed is documented in "microseconds"`},
			{"dirty.go", 23, `"+" mixes units: durS is in s but sizeBytes is in B`},
			{"dirty.go", 27, `">" mixes time scales: totalS is in s but latencyUS is in us`},
			{"dirty.go", 31, `"<" mixes time scales: durS is in s but w.SpanMS is in ms`},
		}},
	}
	typedGoldens = []golden{
		{fixture: "unitflow", check: "unitflow", want: []goldenWant{
			{"dirty.go", 10, `field Sample.WindowMS is suffixed ms but its comment documents "seconds" (s)`},
			{"dirty.go", 20, `"+" mixes units: wait is in s but payloadBytes is in B`},
			{"dirty.go", 25, `"-" mixes time scales: t is in s but sliceMS is in ms`},
			{"dirty.go", 30, "budgetUSD is suffixed USD but is assigned a value in us"},
			{"dirty.go", 35, "ratioS is suffixed s but stores a dimensionless ratio"},
			{"dirty.go", 40, "totalS is suffixed s but stores a product of units (time×time)"},
			{"dirty.go", 45, `"+=" mixes units: totalBytes is in B but extraMS is in ms`},
			{"dirty.go", 50, "CapUSD is suffixed USD but is assigned a value in s"},
			{"dirty.go", 58, `call to bill passes elapsedS (s) for parameter "amountUSD", which is in USD`},
			{"dirty.go", 62, "waitUS declares its result in us but returns a value in s"},
		}},
	}
	interGoldens = []golden{
		{fixture: "ctxflow", check: "ctxflow", want: []goldenWant{
			{"dirty.go", 15, "context.Background in repro/internal/analyzers/testdata/ctxflow/dirty.detachedTimeout, which already carries a context"},
			{"dirty.go", 21, "context.TODO in repro/internal/analyzers/testdata/ctxflow/dirty.handlerTODO, which already carries a context"},
			{"dirty.go", 32, "but every caller (1) carries a context; accept a ctx parameter"},
			{"dirty.go", 43, "blocking channel send in a loop of repro/internal/analyzers/testdata/ctxflow/dirty.pump with no ctx.Done() escape"},
			{"dirty.go", 51, "blocking channel receive in a loop of repro/internal/analyzers/testdata/ctxflow/dirty.drain with no ctx.Done() escape"},
			{"dirty.go", 60, "select in a loop of repro/internal/analyzers/testdata/ctxflow/dirty.waitLoop has no ctx.Done() case and no default"},
			{"dirty.go", 75, "calls repro/internal/analyzers/testdata/ctxflow/dirty.process without threading its ctx"},
		}},
	}
)

// testDirty runs each golden's check over its dirty/ fixture and pins
// the findings: file, line, check and message.
func testDirty(t *testing.T, goldens []golden) {
	for _, g := range goldens {
		t.Run(g.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", g.fixture, "dirty")
			got := lintDir(t, dir, g.check)
			if len(got) != len(g.want) {
				t.Fatalf("%s: got %d finding(s), want %d:\n%s",
					dir, len(got), len(g.want), renderDiags(got))
			}
			for i, w := range g.want {
				d := got[i]
				if filepath.Base(d.File) != w.file || d.Line != w.line || d.Check != g.check {
					t.Errorf("finding %d: got %s:%d [%s], want %s:%d [%s]",
						i, d.File, d.Line, d.Check, w.file, w.line, g.check)
				}
				if !strings.Contains(d.Message, w.substr) {
					t.Errorf("finding %d: message %q does not contain %q", i, d.Message, w.substr)
				}
			}
		})
	}
}

// testClean requires each golden's clean/ fixture to survive the full
// suite, not just its own check: a clean idiom that trips a
// neighboring check is still a false positive.
func testClean(t *testing.T, goldens []golden) {
	for _, g := range goldens {
		t.Run(g.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", g.fixture, "clean")
			if got := lintDir(t, dir); len(got) != 0 {
				t.Fatalf("%s: want no findings, got:\n%s", dir, renderDiags(got))
			}
		})
	}
}

func TestGoldenDirtyFixtures(t *testing.T)      { testDirty(t, syntaxGoldens) }
func TestTypedGoldenDirtyFixtures(t *testing.T) { testDirty(t, typedGoldens) }
func TestInterGoldenDirtyFixtures(t *testing.T) { testDirty(t, interGoldens) }

func TestGoldenCleanFixtures(t *testing.T) {
	// Every registered check has a golden fixture in some group.
	for _, c := range All() {
		if !slices.ContainsFunc(slices.Concat(syntaxGoldens, typedGoldens, interGoldens),
			func(g golden) bool { return g.check == c.ID }) {
			t.Errorf("check %s has no golden fixture", c.ID)
		}
	}
	testClean(t, syntaxGoldens)
}

func TestTypedGoldenCleanFixtures(t *testing.T) { testClean(t, typedGoldens) }
func TestInterGoldenCleanFixtures(t *testing.T) { testClean(t, interGoldens) }

func TestSuppressionDirectives(t *testing.T) {
	got := lintDir(t, filepath.Join("testdata", "suppress"))
	// Same-line, line-above, comma-list and wildcard directives silence
	// their wall-clock reads. The directive missing a reason and the one
	// naming no registered check suppress nothing: each is a badignore,
	// and the nodeterm below it leaks.
	want := []struct {
		line  int
		check string
	}{{30, BadIgnoreID}, {31, "nodeterm"}, {35, BadIgnoreID}, {36, "nodeterm"}}
	if len(got) != len(want) {
		t.Fatalf("want %d findings, got:\n%s", len(want), renderDiags(got))
	}
	for i, w := range want {
		if got[i].Line != w.line || got[i].Check != w.check {
			t.Errorf("got %s:%d [%s], want line %d [%s]", got[i].File, got[i].Line, got[i].Check, w.line, w.check)
		}
	}
	if !strings.Contains(got[2].Message, `unknown check "nosuchcheck"`) {
		t.Errorf("badignore message %q does not name the unknown check", got[2].Message)
	}
}

// TestInterSuppression pins //lint:ignore handling for findings of the
// call-graph check: the directive in the file a finding lands in
// silences it.
func TestInterSuppression(t *testing.T) {
	if got := lintDir(t, filepath.Join("testdata", "ctxflow", "suppressed"), "ctxflow"); len(got) != 0 {
		t.Fatalf("want suppressed, got:\n%s", renderDiags(got))
	}
}

// TestEveryCheckHasAStatedReason holds the registry to DESIGN.md §11's
// table of checks, the way surface_test.go holds cmd/ to §3's: a check
// needs a row naming the invariant it guards and the evidence that
// earned it, and a row needs its check. perfbudget is the table's one
// row that is not a registered check.
func TestEveryCheckHasAStatedReason(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec11, ok := strings.Cut(string(design), "\n## 11.")
	if !ok {
		t.Fatal("DESIGN.md has no §11")
	}
	sec11, _, _ = strings.Cut(sec11, "\n## ")
	var rows []string
	for _, row := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|([^|]*)\\|([^|]*)\\|$").FindAllStringSubmatch(sec11, -1) {
		if strings.TrimSpace(row[2]) == "" || strings.TrimSpace(row[3]) == "" {
			t.Errorf("DESIGN.md §11: %s states no invariant or no evidence", row[1])
		}
		rows = append(rows, row[1])
	}
	want := []string{"perfbudget"}
	for _, c := range All() {
		want = append(want, c.ID)
	}
	slices.Sort(rows)
	slices.Sort(want)
	if !slices.Equal(rows, want) {
		t.Errorf("DESIGN.md §11's check table and the registry differ:\n table: %v\n  want: %v", rows, want)
	}
}

func TestRunSkipsTestdata(t *testing.T) {
	res, err := Run([]string{"./..."})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Files == 0 {
		t.Fatal("Run lint surface is empty; expected the package's own files")
	}
	for _, d := range res.Diags {
		if strings.Contains(d.File, "testdata") {
			t.Errorf("testdata leaked into the lint surface: %s", d)
		}
	}
}

// TestRunTypedSkipsTestdata holds the typed load itself to the lint
// surface: no fixture is type-checked, so none can feed a check's
// types or the call graph, even one with no findings of its own.
func TestRunTypedSkipsTestdata(t *testing.T) {
	pkgs, err := Load([]string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load returned no packages; expected this package")
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, "testdata") {
			t.Errorf("testdata package %s (%s) was type-checked", p.Path, p.Dir)
		}
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s: loaded without type information", p.Dir)
		}
	}
}

func TestRunExplicitDirectory(t *testing.T) {
	res, err := Run([]string{filepath.Join("testdata", "nodeterm", "dirty")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Files != 1 {
		t.Errorf("Files = %d, want 1", res.Files)
	}
	if len(res.Diags) != 6 {
		t.Errorf("got %d finding(s), want the 6 from dirty.go:\n%s", len(res.Diags), renderDiags(res.Diags))
	}
}

// TestRunTypedExplicitDirectory runs the full suite on a fixture whose
// findings need type information: every one comes through Run.
func TestRunTypedExplicitDirectory(t *testing.T) {
	res, err := Run([]string{filepath.Join("testdata", "unitflow", "dirty")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Files != 1 {
		t.Errorf("Files = %d, want 1", res.Files)
	}
	if len(res.Diags) != len(typedGoldens[0].want) {
		t.Errorf("got %d finding(s), want the %d from dirty.go:\n%s",
			len(res.Diags), len(typedGoldens[0].want), renderDiags(res.Diags))
	}
	for _, d := range res.Diags {
		if d.Check != "unitflow" {
			t.Errorf("unexpected %s finding: %s", d.Check, d)
		}
	}
}

func renderDiags(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}
