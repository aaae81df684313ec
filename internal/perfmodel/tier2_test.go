package perfmodel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
)

func mustTable(t *testing.T, csv string) *Table {
	t.Helper()
	tbl, err := LoadTable(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

const tinyTable = `system,kernel,points,ranks,mflups
CSP-2,harvey,1000,1,100
CSP-2,harvey,1000,4,350
CSP-2,harvey,8000,1,110
CSP-2,harvey,8000,4,400
`

func TestLoadTableRejectsMalformedCSVWithLineNumbers(t *testing.T) {
	cases := []struct {
		name, csv, wantLine, wantMsg string
	}{
		{"bad header", "sys,kernel\nx,y\n", "line 1", "header"},
		{"empty table", "system,kernel,points,ranks,mflups\n", "line 1", "empty table"},
		{"short row", tinyTable + "CSP-2,harvey,9000\n", "line 6", "3 fields"},
		{"bad points", "system,kernel,points,ranks,mflups\nCSP-2,harvey,many,1,100\n", "line 2", "bad points"},
		{"negative ranks", "system,kernel,points,ranks,mflups\nCSP-2,harvey,1000,-1,100\n", "line 2", "bad ranks"},
		{"zero mflups", "system,kernel,points,ranks,mflups\nCSP-2,harvey,1000,1,0\n", "line 2", "bad mflups"},
		{"empty system", "system,kernel,points,ranks,mflups\n,harvey,1000,1,100\n", "line 2", "empty system"},
		{"duplicate", tinyTable + "CSP-2,harvey,8000,4,401\n", "line 6", "duplicate"},
		{"unsorted", tinyTable + "CSP-2,harvey,1000,2,200\n", "line 6", "not sorted"},
	}
	for _, tc := range cases {
		_, err := LoadTable(strings.NewReader(tc.csv))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range []string{tc.wantLine, tc.wantMsg} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", tc.name, err, want)
			}
		}
	}
}

func TestLookupExactHit(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	mflups, dist, extrap, err := tbl.Lookup("CSP-2", "harvey", 8000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mflups != 400 || dist != 0 || extrap {
		t.Errorf("exact hit = (%v, %v, %v), want (400, 0, false)", mflups, dist, extrap)
	}
	// Empty kernel falls back to DefaultKernel.
	mflups2, _, _, err := tbl.Lookup("CSP-2", "", 8000, 4)
	if err != nil || mflups2 != 400 {
		t.Errorf("default-kernel lookup = (%v, %v)", mflups2, err)
	}
}

func TestLookupMissingGroup(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	_, _, _, err := tbl.Lookup("TRC", "harvey", 8000, 4)
	if err == nil || !strings.Contains(err.Error(), "no rows") {
		t.Errorf("missing system error = %v", err)
	}
	if tbl.Covers("TRC", "harvey") {
		t.Error("Covers claims rows for an absent system")
	}
	if !tbl.Covers("CSP-2", "") {
		t.Error("Covers rejects default kernel for a present system")
	}
}

// TestLookupTieBreakDeterminism queries the exact midpoint (in log
// space) between rows with different throughputs: every repetition must
// return the identical blended value, exercising the sorted-order
// tie-break for equidistant neighbors.
func TestLookupTieBreakDeterminism(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	// (sqrt(1000*8000), 2) is log-equidistant from all four corners.
	first, dist, _, err := tbl.Lookup("CSP-2", "harvey", 2828, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dist <= 0 {
		t.Fatalf("midpoint query reported distance %v", dist)
	}
	for i := 0; i < 50; i++ {
		got, d, _, err := tbl.Lookup("CSP-2", "harvey", 2828, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != first || d != dist {
			t.Fatalf("iteration %d: lookup (%v, %v) != first (%v, %v)", i, got, d, first, dist)
		}
	}
	// The blend must stay inside the neighbors' value range.
	if first < 100 || first > 400 {
		t.Errorf("interpolated value %v outside table range [100, 400]", first)
	}
}

func TestLookupExtrapolationFlag(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	cases := []struct {
		points, ranks int
		want          bool
	}{
		{2000, 2, false}, // inside hull
		{1000, 1, false}, // corner
		{64000, 4, true}, // beyond max points
		{1000, 64, true}, // beyond max ranks
		{500, 1, true},   // below min points
	}
	for _, tc := range cases {
		_, _, extrap, err := tbl.Lookup("CSP-2", "harvey", tc.points, tc.ranks)
		if err != nil {
			t.Fatal(err)
		}
		if extrap != tc.want {
			t.Errorf("(%d points, %d ranks): extrapolated = %v, want %v", tc.points, tc.ranks, extrap, tc.want)
		}
	}
}

func TestLookupBackendPredict(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	b := NewLookupBackend("CSP-2", tbl)
	if b.Tier() != Tier2Measured {
		t.Fatalf("tier = %q", b.Tier())
	}
	ws := &WorkloadSummary{Name: "cyl", Points: 8000, BytesSerial: 1}
	req := Request{Summary: ws, Ranks: 4}
	if !b.Covers(req) {
		t.Fatal("backend does not cover an in-table request")
	}
	p, err := b.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tier != Tier2Measured || p.Model != ModelMeasured {
		t.Errorf("provenance = %q/%q", p.Tier, p.Model)
	}
	if p.MFLUPS != 400 || p.TableDistance != 0 || p.Extrapolated {
		t.Errorf("prediction = %+v", p)
	}
	wantSeconds := 8000.0 / (400 * 1e6)
	if p.SecondsPerStep != wantSeconds {
		t.Errorf("SecondsPerStep = %v, want %v", p.SecondsPerStep, wantSeconds)
	}
	if p.Confidence.LoMFLUPS >= 400 || p.Confidence.HiMFLUPS <= 400 {
		t.Errorf("confidence band %+v does not bracket 400", p.Confidence)
	}

	// The measured tier declines what it cannot model.
	if b.Covers(Request{Summary: ws, Ranks: 4, Occupancy: 0.5}) {
		t.Error("covers occupancy sharing")
	}
	if NewLookupBackend("TRC", tbl).Covers(req) {
		t.Error("covers a system with no rows")
	}
	if _, err := b.Predict(Request{Summary: ws, Ranks: 4, Occupancy: 0.5}); err == nil {
		t.Error("predicted through occupancy sharing")
	}
}

func TestPredictorFallback(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	sys := machine.NewCSP2()
	char := characterizeNoiseless(t, sys)
	pred, err := NewPredictor(
		NewPhysicsBackend(sys),
		NewCalibratedBackend(char),
		NewLookupBackend("CSP-2", tbl),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(pred.Tiers()); got != "[tier2 tier1 tier0]" {
		t.Fatalf("Tiers() = %s", got)
	}

	ws := &WorkloadSummary{Name: "cyl", Points: 8000, BytesSerial: 64 * 8000}
	g := GeneralModel{}

	// Auto resolves to tier2 for an in-table request...
	p, err := pred.Predict(Request{Summary: ws, General: g, Ranks: 4, Tier: TierAuto})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tier != Tier2Measured {
		t.Errorf("auto tier = %q, want tier2", p.Tier)
	}
	// ...and "" means the same thing.
	p2, err := pred.Predict(Request{Summary: ws, General: g, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Errorf("empty tier differs from auto: %+v vs %+v", p2, p)
	}

	// Occupancy pushes auto past tier2 to tier1 (needs a workload).
	_, w := testWorkload(t, 8)
	p, err = pred.Predict(Request{Workload: &w, Occupancy: 0.5, Tier: TierAuto})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tier != Tier1Calibrated {
		t.Errorf("occupancy auto tier = %q, want tier1", p.Tier)
	}

	// Explicit tiers route directly.
	for _, tier := range []string{Tier0Physics, Tier1Calibrated, Tier2Measured} {
		p, err := pred.Predict(Request{Summary: ws, General: g, Ranks: 4, Tier: tier})
		if err != nil {
			t.Fatalf("tier %s: %v", tier, err)
		}
		if p.Tier != tier {
			t.Errorf("tier %s served by %s", tier, p.Tier)
		}
	}

	// Without the lookup backend, auto falls back to tier1.
	pred2, err := NewPredictor(NewPhysicsBackend(sys), NewCalibratedBackend(char))
	if err != nil {
		t.Fatal(err)
	}
	p, err = pred2.Predict(Request{Summary: ws, General: g, Ranks: 4, Tier: TierAuto})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tier != Tier1Calibrated {
		t.Errorf("fallback tier = %q, want tier1", p.Tier)
	}
	// An explicit tier with no backend is ErrNoData, not a silent fallback.
	if _, err := pred2.Predict(Request{Summary: ws, General: g, Ranks: 4, Tier: Tier2Measured}); err == nil {
		t.Error("missing tier2 backend served a prediction")
	}
}

func TestNewPredictorValidation(t *testing.T) {
	sys := machine.NewCSP2()
	if _, err := NewPredictor(); err == nil {
		t.Error("empty predictor accepted")
	}
	if _, err := NewPredictor(NewPhysicsBackend(sys), NewPhysicsBackend(sys)); err == nil {
		t.Error("duplicate tier accepted")
	}
}

// TestBandLowerEdgeNeverNegative: Tier 2's half-width grows with table
// distance and passes 1 far from the table (on cylinder@5's 3240 points,
// CSP-2, the unclamped lower edge was −39 MFLUPS at 65 536 ranks and
// −103 at 2^20); the band's lower edge stops at 0 while the upper edge
// keeps widening.
func TestBandLowerEdgeNeverNegative(t *testing.T) {
	tbl, err := DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	b := NewLookupBackend("CSP-2", tbl)
	ws := &WorkloadSummary{Name: "cylinder@5", Points: 3240, BytesSerial: 1}
	for _, ranks := range []int{8, 128, 4096, 65536, 1 << 20} {
		p, err := b.Predict(Request{Summary: ws, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi := p.Confidence.LoMFLUPS, p.Confidence.HiMFLUPS; lo < 0 || lo > p.MFLUPS || hi <= p.MFLUPS {
			t.Errorf("%d ranks: band [%v, %v] around %v MFLUPS", ranks, lo, hi, p.MFLUPS)
		}
	}
	if got := band(50, 3); got != (Band{LoMFLUPS: 0, HiMFLUPS: 200}) {
		t.Errorf("band(50, 3) = %+v, want [0, 200]", got)
	}
}
