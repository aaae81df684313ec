package main

import (
	"os"
	"testing"
)

// TestExampleIsTheGoldenDocument: the report of the -example document is
// pinned in internal/campaign (TestFleetReportsMatchGolden) from a copy of
// it; the copy must stay the document.
func TestExampleIsTheGoldenDocument(t *testing.T) {
	doc, err := os.ReadFile("../../internal/campaign/testdata/fleet_example.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != exampleConfig {
		t.Error("internal/campaign/testdata/fleet_example.json is not what -example prints; regenerate it (and its golden) with `go run ./cmd/fleet -example`")
	}
}
