package monitor

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

func sample(t float64, mflups float64) Sample {
	return Sample{TimeS: t, Workload: "aorta", System: "CSP-2", Ranks: 36, MFLUPS: mflups}
}

func TestAddValidation(t *testing.T) {
	var st Store
	if err := st.Add(Sample{TimeS: 1, Workload: "a", System: "s", MFLUPS: 0}); err == nil {
		t.Error("want error for zero MFLUPS")
	}
	if err := st.Add(Sample{TimeS: 1, MFLUPS: 5}); err == nil {
		t.Error("want error for missing identity")
	}
	if err := st.Add(sample(10, 50)); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(sample(5, 50)); err == nil {
		t.Error("want error for time going backwards")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

func TestSeriesAndConfigurations(t *testing.T) {
	var st Store
	for i := 0; i < 5; i++ {
		if err := st.Add(sample(float64(i), 50+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	other := Sample{TimeS: 10, Workload: "cyl", System: "TRC", Ranks: 8, MFLUPS: 99}
	if err := st.Add(other); err != nil {
		t.Fatal(err)
	}
	if got := st.Series("aorta", "CSP-2", 36); len(got) != 5 {
		t.Errorf("series has %d samples, want 5", len(got))
	}
	if got := st.Series("aorta", "CSP-2", 8); len(got) != 0 {
		t.Error("wrong-rank series should be empty")
	}
	if got := st.Configurations(); len(got) != 2 {
		t.Errorf("configurations = %v, want 2 entries", got)
	}
}

func TestBaseline(t *testing.T) {
	var st Store
	for i, v := range []float64{50, 52, 48, 50} {
		if err := st.Add(sample(float64(i), v)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := st.Baseline("aorta", "CSP-2", 36)
	if err != nil {
		t.Fatal(err)
	}
	if b.Mean != 50 {
		t.Errorf("baseline mean %v, want 50", b.Mean)
	}
	if _, err := st.Baseline("nope", "CSP-2", 36); err == nil {
		t.Error("want error for unknown configuration")
	}
}

func TestDetectRegressions(t *testing.T) {
	var st Store
	// Stable history around 50 with sd ~1, then a crash to 30.
	hist := []float64{50, 51, 49, 50.5, 49.5, 50, 51, 49}
	for i, v := range hist {
		if err := st.Add(sample(float64(i), v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Add(sample(100, 30)); err != nil {
		t.Fatal(err)
	}
	regs, err := st.DetectRegressions(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("detected %d regressions, want 1", len(regs))
	}
	r := regs[0]
	if r.LatestMFLUPS != 30 || math.Abs(r.BaselineMFLUPS-50) > 0.5 {
		t.Errorf("regression fields wrong: %+v", r)
	}
	if r.Sigmas < 3 {
		t.Errorf("sigmas %v, want > 3", r.Sigmas)
	}
}

func TestDetectRegressionsNoFalsePositive(t *testing.T) {
	var st Store
	for i, v := range []float64{50, 51, 49, 50.5, 49.5, 50.2} {
		if err := st.Add(sample(float64(i), v)); err != nil {
			t.Fatal(err)
		}
	}
	regs, err := st.DetectRegressions(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("false positive: %+v", regs)
	}
}

func TestDetectRegressionsValidation(t *testing.T) {
	var st Store
	if _, err := st.DetectRegressions(1, 3); err == nil {
		t.Error("want error for tiny history requirement")
	}
	if _, err := st.DetectRegressions(3, 0); err == nil {
		t.Error("want error for zero threshold")
	}
}

func TestRecordsAndFeedRefiner(t *testing.T) {
	var st Store
	s := sample(1, 80)
	s.Model = "direct"
	s.Predicted = 100
	if err := st.Add(s); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(sample(2, 85)); err != nil { // no prediction: skipped
		t.Fatal(err)
	}
	recs := st.Records()
	if len(recs) != 1 || recs[0].Predicted != 100 || recs[0].Measured != 80 {
		t.Fatalf("records wrong: %+v", recs)
	}
	var ref perfmodel.Refiner
	if err := st.FeedRefiner(&ref); err != nil {
		t.Fatal(err)
	}
	if ref.Len() != 1 {
		t.Errorf("refiner has %d records, want 1", ref.Len())
	}
	if c := ref.Correction("CSP-2", "direct", 36); math.Abs(c-0.8) > 1e-12 {
		t.Errorf("correction %v, want 0.8", c)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	var st Store
	for i := 0; i < 3; i++ {
		if err := st.Add(sample(float64(i), 50+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var st2 Store
	if err := st2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 3 {
		t.Fatalf("loaded %d samples, want 3", st2.Len())
	}
	if err := st2.Load(bytes.NewBufferString("garbage")); err == nil {
		t.Error("want error for corrupt input")
	}
}

func TestRender(t *testing.T) {
	var st Store
	for i := 0; i < 3; i++ {
		if err := st.Add(sample(float64(i), 50+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	out := st.Render()
	for _, want := range []string{"aorta|CSP-2|36", "mean MFLUPS", "51.00", "52.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAddRejectsNonFinite is the regression test for the NaN guard:
// every NaN comparison is false, so NaN MFLUPS sailed through the old
// `<= 0` validation and poisoned every downstream mean and sigma.
func TestAddRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		s    Sample
	}{
		{"NaN MFLUPS", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: math.NaN()}},
		{"+Inf MFLUPS", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: math.Inf(1)}},
		{"NaN time", Sample{TimeS: math.NaN(), Workload: "a", System: "s", Ranks: 4, MFLUPS: 5}},
		{"NaN predicted", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: 5, Predicted: math.NaN()}},
		{"-Inf cost", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: 5, CostUSD: math.Inf(-1)}},
		{"NaN wait", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: 5, WaitS: math.NaN()}},
	}
	for _, tc := range cases {
		var st Store
		if err := st.Add(tc.s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: error %q does not name the non-finite field", tc.name, err)
		}
		if st.Len() != 0 {
			t.Errorf("%s: rejected sample was stored", tc.name)
		}
	}
}

// TestKeyEscaping is the regression test for the ambiguous key join:
// workload "a|b" system "c" and workload "a" system "b|c" rendered the
// same "a|b|c|ranks" key, merging two configurations' series.
func TestKeyEscaping(t *testing.T) {
	var st Store
	first := Sample{TimeS: 1, Workload: "a|b", System: "c", Ranks: 4, MFLUPS: 10}
	second := Sample{TimeS: 2, Workload: "a", System: "b|c", Ranks: 4, MFLUPS: 20}
	if first.Key() == second.Key() {
		t.Fatalf("keys collide: %q", first.Key())
	}
	for _, s := range []Sample{first, second} {
		if err := st.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Series("a|b", "c", 4); len(got) != 1 || got[0].MFLUPS != 10 {
		t.Errorf("series for workload a|b = %v, want the single 10-MFLUPS sample", got)
	}
	if got := st.Series("a", "b|c", 4); len(got) != 1 || got[0].MFLUPS != 20 {
		t.Errorf("series for system b|c = %v, want the single 20-MFLUPS sample", got)
	}
	if got := len(st.Configurations()); got != 2 {
		t.Errorf("configurations = %d, want 2 distinct", got)
	}
	// Backslashes in names must not manufacture collisions either.
	esc1 := Sample{Workload: `a\`, System: `b`}
	esc2 := Sample{Workload: `a`, System: `\b`}
	if esc1.Key() == esc2.Key() {
		t.Errorf("backslash keys collide: %q", esc1.Key())
	}
}
