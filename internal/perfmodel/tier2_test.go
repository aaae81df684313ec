package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fit"
	"repro/internal/lbm"
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

const tinyTable = `system,kernel,points,ranks,efficiency,general_efficiency
CSP-2,harvey,1000,1,0.8,1.6
CSP-2,harvey,1000,4,0.9,1.8
CSP-2,harvey,8000,1,1,2
CSP-2,harvey,8000,4,1.1,2.2
`

func TestLoadTableRejectsMalformedCSVWithLineNumbers(t *testing.T) {
	const header = "system,kernel,points,ranks,efficiency,general_efficiency\n"
	cases := []struct {
		name, csv, wantLine, wantMsg string
	}{
		{"bad header", "sys,kernel\nx,y\n", "line 1", "header"},
		{"old header", "system,kernel,points,ranks,mflups\nCSP-2,harvey,1000,1,100\n", "line 1", "header"},
		{"direct-only header", "system,kernel,points,ranks,efficiency\nCSP-2,harvey,1000,1,1\n", "line 1", "header"},
		{"empty table", header, "line 1", "empty table"},
		{"empty input", "", "line 1", "empty table"},
		{"short row", tinyTable + "CSP-2,harvey,9000\n", "line 6", "3 fields"},
		{"bad points", header + "CSP-2,harvey,many,1,1,1\n", "line 2", "bad points"},
		{"negative ranks", header + "CSP-2,harvey,1000,-1,1,1\n", "line 2", "bad ranks"},
		{"zero efficiency", header + "CSP-2,harvey,1000,1,0,1\n", "line 2", "bad efficiency"},
		{"negative efficiency", header + "CSP-2,harvey,1000,1,-0.9,1\n", "line 2", "bad efficiency"},
		{"NaN efficiency", header + "CSP-2,harvey,1000,1,NaN,1\n", "line 2", "bad efficiency"},
		{"infinite efficiency", header + "CSP-2,harvey,1000,1,+Inf,1\n", "line 2", "bad efficiency"},
		{"zero general efficiency", header + "CSP-2,harvey,1000,1,1,0\n", "line 2", "bad general_efficiency"},
		{"NaN general efficiency", header + "CSP-2,harvey,1000,1,1,NaN\n", "line 2", "bad general_efficiency"},
		{"missing general efficiency", header + "CSP-2,harvey,1000,1,1\n", "line 2", "5 fields"},
		{"empty system", header + ",harvey,1000,1,1,1\n", "line 2", "empty system"},
		{"unknown system", tinyTable + "CSP-9,harvey,1000,1,1,1\n", "line 6", `unknown system "CSP-9"`},
		{"duplicate", tinyTable + "CSP-2,harvey,8000,4,1.2,1\n", "line 6", "duplicate"},
		{"unsorted", tinyTable + "CSP-2,harvey,1000,2,0.85,1\n", "line 6", "not sorted"},
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
	eff, extrap, err := tbl.efficiency("CSP-2", "harvey", ModelDirect, 8000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if eff != 1.1 || extrap {
		t.Errorf("exact hit = (%v, %v), want (1.1, false)", eff, extrap)
	}
	// The generalized model reads its own column.
	if geff, _, err := tbl.efficiency("CSP-2", "harvey", ModelGeneral, 8000, 4); err != nil || geff != 2.2 {
		t.Errorf("generalized exact hit = (%v, %v), want 2.2", geff, err)
	}
	// Empty kernel falls back to DefaultKernel.
	eff2, _, err := tbl.efficiency("CSP-2", "", ModelDirect, 8000, 4)
	if err != nil || eff2 != 1.1 {
		t.Errorf("default-kernel lookup = (%v, %v)", eff2, err)
	}
}

func TestLookupMissingGroup(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	_, _, err := tbl.efficiency("TRC", "harvey", ModelDirect, 8000, 4)
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
// space) between rows with different efficiencies: every repetition must
// return the identical blended value, exercising the table-order
// tie-break for equidistant neighbors, and it must equal the plain mean
// of the four corners, which all weigh the same.
func TestLookupTieBreakDeterminism(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	// (sqrt(1000*8000), 2) is log-equidistant from all four corners.
	first, _, err := tbl.efficiency("CSP-2", "harvey", ModelDirect, 2828, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, _, err := tbl.efficiency("CSP-2", "harvey", ModelDirect, 2828, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("iteration %d: efficiency %v != first %v", i, got, first)
		}
	}
	if math.Abs(first-0.95) > 1e-3 {
		t.Errorf("midpoint efficiency %v, want about the corners' mean 0.95", first)
	}
	// Five rows at one distance: only the first four in table order count.
	five := mustTable(t, `system,kernel,points,ranks,efficiency,general_efficiency
CSP-2,harvey,1000,2,1,1
CSP-2,harvey,2000,1,1,1
CSP-2,harvey,2000,4,1,1
CSP-2,harvey,4000,2,1,1
CSP-2,harvey,4000,8,9,9
`)
	if got, _, err := five.efficiency("CSP-2", "harvey", ModelDirect, 2000, 2); err != nil || got != 1 {
		t.Errorf("four nearest of five = (%v, %v), want (1, nil)", got, err)
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
		_, extrap, err := tbl.efficiency("CSP-2", "harvey", ModelDirect, tc.points, tc.ranks)
		if err != nil {
			t.Fatal(err)
		}
		if extrap != tc.want {
			t.Errorf("(%d points, %d ranks): extrapolated = %v, want %v", tc.points, tc.ranks, extrap, tc.want)
		}
	}
}

// TestLookupBackendPredict: Tier 2 is the model on the table's noiseless
// reference with every term scaled by the model's efficiency, so on a
// row the table holds it is the reference's prediction times that row's
// value — for the generalized model, on FixedLaws and the general
// efficiency column.
func TestLookupBackendPredict(t *testing.T) {
	tbl := mustTable(t, tinyTable)
	b := NewLookupBackend("CSP-2", tbl)
	if b.Tier() != Tier2Measured {
		t.Fatalf("tier = %q", b.Tier())
	}
	ws := &WorkloadSummary{Name: "cyl", Points: 8000, BytesSerial: 64 * 8000}
	req := Request{Summary: ws, Ranks: 4}
	if !b.Covers(req) {
		t.Fatal("backend does not cover an in-table request")
	}
	p, err := b.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := characterizeNoiseless(t, machine.NewCSP2()).predictGeneral(*ws, FixedLaws(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tier != Tier2Measured || p.Model != ModelGeneral || p.Extrapolated {
		t.Errorf("provenance = %q/%q extrapolated %v", p.Tier, p.Model, p.Extrapolated)
	}
	if p.MFLUPS != ref.MFLUPS*2.2 || p.SecondsPerStep != ref.SecondsPerStep/2.2 || p.MemS != ref.MemS/2.2 ||
		p.CommBandwidthS != ref.CommBandwidthS/2.2 {
		t.Errorf("prediction %+v is not the reference %+v scaled by 2.2", p, ref)
	}
	if p.Confidence != band(p.MFLUPS, Tier2BaseConfidenceRel) {
		t.Errorf("confidence band %+v, want ±%v", p.Confidence, Tier2BaseConfidenceRel)
	}
	// The laws a request carries do not reach Tier 2, as at Tier 0.
	laws := GeneralModel{Z: fit.LogLaw{C1: 0.1, C2: 1}, PointCommBytes: 80}
	if q, err := b.Predict(Request{Summary: ws, Ranks: 4, General: laws}); err != nil || q != p {
		t.Errorf("Tier 2 read Request.General: %+v, want %+v (%v)", q, p, err)
	}
	// Off the rows' box the band widens.
	if q, err := b.Predict(Request{Summary: ws, Ranks: 64}); err != nil || !q.Extrapolated ||
		q.Confidence != band(q.MFLUPS, Tier2BaseConfidenceRel+0.25) {
		t.Errorf("64 ranks: %+v (%v)", q, err)
	}

	// The measured tier declines what it cannot model.
	if b.Covers(Request{Summary: ws, Ranks: 4, Occupancy: 0.5}) {
		t.Error("covers occupancy sharing")
	}
	if NewLookupBackend("TRC", tbl).Covers(req) {
		t.Error("covers a system with no rows")
	}
	if _, err := NewLookupBackend("TRC", tbl).Predict(req); !errors.Is(err, ErrNoData) {
		t.Errorf("system with no rows: %v, want ErrNoData", err)
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

// TestBandLowerEdgeNeverNegative: a half-width past 1 — Tier 1's on a
// poor fit, 0.15 plus a residual up to 1 — would put the band's lower
// edge below zero; it stops at 0 while the upper edge keeps widening.
// Tier 2's band stays bracketing however far a query leaves its table.
func TestBandLowerEdgeNeverNegative(t *testing.T) {
	tbl, err := DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	b := NewLookupBackend("CSP-2", tbl)
	ws := &WorkloadSummary{Name: "cylinder@5", Points: 3240, BytesSerial: 64 * 3240}
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

// TestTier2GeneralizedPaysLatency: across nodes the generalized model at
// Tier 2 prices message latency on FixedLaws' event law, so its answer
// stays near the direct model's on the same workload. With no event law
// a 64-rank run on two CSP-2 nodes read tens of times too fast.
func TestTier2GeneralizedPaysLatency(t *testing.T) {
	tbl, err := DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	b := NewLookupBackend("CSP-2", tbl)
	s, w := testWorkload(t, 64)
	ws := &WorkloadSummary{Name: "cyl", Points: s.N(), BytesSerial: s.BytesSerial(lbm.HarveyAccess())}
	direct, err := b.Predict(Request{Model: ModelDirect, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	general, err := b.Predict(Request{Model: ModelGeneral, Summary: ws, Ranks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := general.MFLUPS / direct.MFLUPS; general.CommLatencyS <= 0 || ratio < 0.5 || ratio > 2 {
		t.Errorf("generalized %v MFLUPS (latency %v s) against direct %v: want latency paid and within 2x",
			general.MFLUPS, general.CommLatencyS, direct.MFLUPS)
	}
}
