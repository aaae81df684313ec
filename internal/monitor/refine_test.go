package monitor

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/perfmodel"
)

// pair is a prediction-bearing Tier 1 sample at t=0.
func pair(workload, system, model string, ranks int, predicted, measured float64) Sample {
	return Sample{Workload: workload, System: system, Model: model, Ranks: ranks, Predicted: predicted, MFLUPS: measured}
}

func TestCorrectionRemovesConsistentBias(t *testing.T) {
	// The paper observed consistent overprediction; the correction must
	// learn the bias and cancel it.
	var st Store
	const bias = 1.3 // model predicts 30% high
	for i, measured := range []float64{40, 55, 70, 90} {
		if err := st.Add(pair("aorta", "CSP-2", "direct", 16<<i, measured*bias, measured)); err != nil {
			t.Fatal(err)
		}
	}
	c := st.Correction("CSP-2", "direct", 0)
	if math.Abs(c-1/bias) > 1e-9 {
		t.Errorf("correction = %v, want %v", c, 1/bias)
	}
	before, after, n := st.MAPE("CSP-2", "direct")
	if n != 4 {
		t.Fatalf("MAPE count %d, want 4", n)
	}
	if before < 0.29 || before > 0.31 {
		t.Errorf("MAPE before = %v, want ~0.30", before)
	}
	if after > 1e-9 {
		t.Errorf("MAPE after = %v, want ~0", after)
	}
}

func TestCorrectionFallbacks(t *testing.T) {
	var st Store
	if c := st.Correction("CSP-2", "direct", 0); c != 1 {
		t.Errorf("empty store correction = %v, want 1", c)
	}
	if err := st.Add(pair("w", "TRC", "direct", 36, 100, 80)); err != nil {
		t.Fatal(err)
	}
	// A sample without a prediction is telemetry only.
	if err := st.Add(Sample{Workload: "w", System: "TRC", Ranks: 36, MFLUPS: 85}); err != nil {
		t.Fatal(err)
	}
	// The same rank count, then the same system at another rank count.
	for _, ranks := range []int{36, 72, 0} {
		if c := st.Correction("TRC", "direct", ranks); math.Abs(c-0.8) > 1e-12 {
			t.Errorf("correction at %d ranks = %v, want 0.8", ranks, c)
		}
	}
	// Unknown system falls back to all samples of the model.
	if c := st.Correction("CSP-1", "direct", 0); math.Abs(c-0.8) > 1e-12 {
		t.Errorf("fallback correction = %v, want 0.8", c)
	}
	// Unknown model falls back to 1.
	if c := st.Correction("CSP-1", "generalized", 0); c != 1 {
		t.Errorf("unmatched model correction = %v, want 1", c)
	}
	if _, _, n := st.MAPE("TRC", "direct"); n != 1 {
		t.Errorf("MAPE counted %d samples, want the one carrying a prediction", n)
	}
}

// TestCorrectionReadsTier1Only: the other tiers' residuals are kept for
// drift telemetry and never enter the correction or the MAPE.
func TestCorrectionReadsTier1Only(t *testing.T) {
	var st Store
	tier1 := pair("w", "CSP-1", "direct", 8, 100, 80)
	tier1.Tier = perfmodel.Tier1Calibrated // stored as ""
	tier0 := pair("w", "CSP-1", "direct", 8, 400, 80)
	tier0.Tier = perfmodel.Tier0Physics
	tier2 := pair("w", "CSP-1", "direct", 8, 81, 80)
	tier2.Tier = perfmodel.Tier2Measured
	for _, s := range []Sample{tier1, tier0, tier2} {
		if err := st.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if c := st.Correction("CSP-1", "direct", 8); math.Abs(c-0.8) > 1e-12 {
		t.Errorf("correction = %v, want 0.8 from the Tier 1 sample alone", c)
	}
	if before, _, n := st.MAPE("CSP-1", "direct"); n != 1 || math.Abs(before-0.25) > 1e-12 {
		t.Errorf("MAPE = %v over %d samples, want 0.25 over 1", before, n)
	}
	if got := st.Series("w", "CSP-1", 8); len(got) != 3 || got[0].Tier != "" || got[1].Tier != "tier0" {
		t.Errorf("series = %+v, want all three samples with tiers \"\", tier0, tier2", got)
	}
}

func TestAddRejectsBadPredictions(t *testing.T) {
	var st Store
	if err := st.Add(pair("w", "s", "direct", 4, -10, 10)); err == nil {
		t.Error("want error for negative prediction")
	}
	if err := st.Add(pair("w", "s", "direct", 4, 10, -1)); err == nil {
		t.Error("want error for negative measurement")
	}
	if st.Len() != 0 {
		t.Error("bad samples were stored")
	}
	// Zero is "no prediction": stored, and never a divisor.
	if err := st.Add(pair("w", "s", "direct", 4, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if c := st.Correction("s", "direct", 4); c != 1 {
		t.Errorf("correction over a prediction-less sample = %v, want 1", c)
	}
}

func TestRefineAppliesCorrection(t *testing.T) {
	var st Store
	if err := st.Add(pair("w", "TRC", "direct", 0, 100, 50)); err != nil {
		t.Fatal(err)
	}
	p := perfmodel.Prediction{Model: "direct", System: "TRC", MFLUPS: 200, SecondsPerStep: 0.01}
	out := st.Refine(p)
	if math.Abs(out.MFLUPS-100) > 1e-9 {
		t.Errorf("refined MFLUPS = %v, want 100", out.MFLUPS)
	}
	if math.Abs(out.SecondsPerStep-0.02) > 1e-12 {
		t.Errorf("refined SecondsPerStep = %v, want 0.02", out.SecondsPerStep)
	}
	// MFLUPS * SecondsPerStep invariant: correction preserves work.
	if math.Abs(out.MFLUPS*out.SecondsPerStep-p.MFLUPS*p.SecondsPerStep) > 1e-9 {
		t.Error("correction does not preserve points-per-step")
	}
}

func TestCorrectionScaleInvariance(t *testing.T) {
	// Correction is a geometric mean of ratios: scaling all predictions by
	// k scales the correction by 1/k.
	f := func(seed int64) bool {
		k := 1 + math.Abs(float64(seed%7))/2
		var a, b Store
		for i := 1; i <= 5; i++ {
			m := float64(10 * i)
			p := m * (1 + 0.1*float64(i))
			if a.Add(pair("w", "S", "direct", 0, p, m)) != nil {
				return false
			}
			if b.Add(pair("w", "S", "direct", 0, p*k, m)) != nil {
				return false
			}
		}
		ca, cb := a.Correction("S", "direct", 0), b.Correction("S", "direct", 0)
		return math.Abs(ca/cb-k) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	var st Store
	if err := st.Add(sample(1, 50)); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"not json",
		`[{"time":0,"workload":"w","system":"s","ranks":4,"mflups":0,"predicted_mflups":5}]`,
		`[{"time":0,"workload":"w","system":"s","ranks":4,"mflups":5,"predicted_mflups":-5}]`,
	} {
		if err := st.Load(strings.NewReader(src)); err == nil {
			t.Errorf("loaded %q", src)
		}
	}
	if st.Len() != 1 {
		t.Errorf("a rejected load left %d samples, want the 1 held before", st.Len())
	}
}
