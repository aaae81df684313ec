package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// nodetermFixture is a directory with exactly six known findings.
var nodetermFixture = filepath.Join("..", "..", "internal", "analyzers", "testdata", "nodeterm", "dirty")

func runLint(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFindingsFailTheRun(t *testing.T) {
	code, out, _ := runLint(nodetermFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "dirty.go") || !strings.Contains(out, "nodeterm") {
		t.Errorf("output does not report the dirty.go findings:\n%s", out)
	}
	if !strings.Contains(out, "lint: 1 file(s), 6 finding(s)\n") {
		t.Errorf("summary line missing or wrong:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runLint("-format=json", nodetermFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []analyzers.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-format=json output is not a diagnostic array: %v\n%s", err, out)
	}
	if len(diags) != 6 {
		t.Fatalf("got %d findings, want 6", len(diags))
	}
}

func TestGitHubFormat(t *testing.T) {
	code, out, _ := runLint("-format", "github", nodetermFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	// The fixture path contains no characters needing property escaping,
	// so the annotation must carry it verbatim alongside line and column.
	if !strings.Contains(out, "::error file=") || !strings.Contains(out, ",line=") {
		t.Errorf("-format=github output carries no workflow annotations:\n%s", out)
	}
	if !strings.Contains(out, "[nodeterm]") {
		t.Errorf("annotation message does not name the check:\n%s", out)
	}
}

func TestGitHubEscaping(t *testing.T) {
	if got := ghMessage("50% done\nnext"); got != "50%25 done%0Anext" {
		t.Errorf("ghMessage = %q", got)
	}
	if got := ghProperty("a:b,c%d"); got != "a%3Ab%2Cc%25d" {
		t.Errorf("ghProperty = %q", got)
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	code, _, errOut := runLint("-format", "yaml", nodetermFixture)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown format") {
		t.Errorf("stderr %q does not name the unknown format", errOut)
	}
}
