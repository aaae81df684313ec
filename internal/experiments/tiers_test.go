package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

// TestGenerateTableDeterministicAndValid regenerates the Tier 2 table
// twice: the bytes must match (fixed harvest seed), pass LoadTable's
// strict validation, and agree with the committed copy — if this fails
// after a simulator change, rerun `cmd/experiments -gen-tables`.
func TestGenerateTableDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := GenerateTable(&a); err != nil {
		t.Fatal(err)
	}
	if err := GenerateTable(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("GenerateTable is not deterministic")
	}
	tbl, err := perfmodel.LoadTable(strings.NewReader(a.String()))
	if err != nil {
		t.Fatalf("generated table fails validation: %v", err)
	}
	for _, sys := range []string{"TRC", "CSP-1", "CSP-2", "CSP-2 EC", "CSP-2 Small"} {
		if !tbl.Covers(sys, perfmodel.DefaultKernel) {
			t.Errorf("generated table has no rows for %s", sys)
		}
	}
	committed, err := os.ReadFile("../perfmodel/tables/measured.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(committed), bytes.TrimSpace(a.Bytes())) {
		t.Error("committed tables/measured.csv is stale; regenerate with `go run ./cmd/experiments -gen-tables`")
	}
}

// TestTiersAccuracyOrdering runs the per-tier evaluation on the embedded
// table and asserts the acceptance property: measured lookup beats the
// calibrated fit, which beats pure physics, and Tier 1's known
// kernel-overhead overprediction is surfaced as a residual-bias anomaly.
func TestTiersAccuracyOrdering(t *testing.T) {
	tbl, err := perfmodel.DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	report, bench, err := Tiers(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !bench.OrderingOK {
		t.Errorf("accuracy ordering violated: %+v", bench.Tiers)
	}
	for _, tier := range []string{perfmodel.Tier0Physics, perfmodel.Tier1Calibrated, perfmodel.Tier2Measured} {
		st, ok := bench.Tiers[tier]
		if !ok || st.N == 0 {
			t.Errorf("tier %s not evaluated", tier)
			continue
		}
		if len(st.BySystem) != 5 {
			t.Errorf("tier %s covers %d systems, want 5", tier, len(st.BySystem))
		}
	}
	if m := bench.Tiers[perfmodel.Tier2Measured].MAPEPct; m > 5 {
		t.Errorf("tier2 MAPE %.2f%% exceeds the noise floor budget of 5%%", m)
	}
	// The simulator's KernelOverhead makes Tier 1 overpredict
	// systematically; the anomaly check must catch it.
	var tier1Anomaly bool
	for _, a := range bench.Anomalies {
		if strings.HasPrefix(a, perfmodel.Tier1Calibrated+"/") && strings.Contains(a, "overprediction") {
			tier1Anomaly = true
		}
	}
	if !tier1Anomaly {
		t.Error("tier1 overprediction bias not flagged as an anomaly")
	}
	if !strings.Contains(report.Text, "MAPE") {
		t.Error("report text missing MAPE table")
	}
}

// TestSummarizeDoesNotDependOnMapOrder pins the totals of a tier to the
// order the residuals arrive in. Summed in map order they moved
// BENCH_tiers.json's last digit from run to run; the sum of these values
// depends on the order they are added in.
func TestSummarizeDoesNotDependOnMapOrder(t *testing.T) {
	rs := []residual{{"a", 1e16}, {"b", 1}, {"c", -1e16}, {"d", 1}, {"e", 3}}
	want := summarize(rs)
	for i := 0; i < 200; i++ {
		if got := summarize(rs); got.BiasPct != want.BiasPct || got.MAPEPct != want.MAPEPct {
			t.Fatalf("run %d: MAPE %v bias %v, first run gave %v and %v", i, got.MAPEPct, got.BiasPct, want.MAPEPct, want.BiasPct)
		}
	}
}
