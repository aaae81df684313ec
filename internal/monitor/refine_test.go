package monitor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/perfmodel"
)

// pair is a prediction-bearing Tier 1 sample at t=0 without terms.
func pair(workload, system, model string, ranks int, predicted, measured float64) Sample {
	return Sample{Workload: workload, System: system, Model: model, Ranks: ranks, Predicted: predicted, MFLUPS: measured}
}

// cell is a Tier 1 direct prediction of points sites whose time splits
// into memS of memory and commS of communication.
func cell(system string, points, memS, commS float64) perfmodel.Prediction {
	sps := memS + commS
	return perfmodel.Prediction{
		Model: "direct", System: system, Ranks: 8, Tier: perfmodel.Tier1Calibrated,
		SecondsPerStep: sps, MFLUPS: points / sps / 1e6, MemS: memS, IntraS: commS / 4, InterS: 3 * commS / 4,
		Confidence: perfmodel.Band{LoMFLUPS: 0.85 * points / sps / 1e6, HiMFLUPS: 1.15 * points / sps / 1e6},
	}
}

// measuredAs is the sample of a run of p whose memory time came out
// memK times the predicted one and its communication commK times.
func measuredAs(t *testing.T, p perfmodel.Prediction, memK, commK float64) Sample {
	t.Helper()
	s := FromPrediction(p)
	s.Workload = "w"
	s.MFLUPS = p.MFLUPS * p.SecondsPerStep / (memK*p.MemS + commK*(p.SecondsPerStep-p.MemS))
	return s
}

// predictionOf is the prediction a sample was recorded from, as far as a
// correction reads it.
func predictionOf(s Sample) perfmodel.Prediction {
	return perfmodel.Prediction{MFLUPS: s.Predicted, MemS: s.MemS, SecondsPerStep: s.MemS + s.CommS}
}

const plantedMem, plantedComm = 1.18, 0.9

// plantedStore holds runs of cells with memory shares from 20 % to 95 %,
// each measured with memory time ×1.18 and communication ×0.9.
func plantedStore(t *testing.T) *Store {
	t.Helper()
	var st Store
	for i, share := range []float64{0.2, 0.45, 0.7, 0.95} {
		p := cell("CSP-2", 1e6*float64(i+1), share*1e-2, (1-share)*1e-2)
		if err := st.Add(measuredAs(t, p, plantedMem, plantedComm)); err != nil {
			t.Fatal(err)
		}
	}
	return &st
}

// TestCorrectionRecoversPlantedTerms: the store fits each term its own
// coefficient and predicts a cell it never saw exactly. At the parent a
// single geometric mean could do neither.
func TestCorrectionRecoversPlantedTerms(t *testing.T) {
	st := plantedStore(t)
	c := st.Correction("CSP-2", "direct")
	if c.Terms.N != 4 || math.Abs(c.Terms.B1-plantedMem) > 1e-9 || math.Abs(c.Terms.B2-plantedComm) > 1e-9 {
		t.Fatalf("correction = %+v, want memory %v and communication %v over 4 samples", c, plantedMem, plantedComm)
	}
	unseen := cell("CSP-2", 3.3e6, 0.6e-2, 0.1e-2)
	want := measuredAs(t, unseen, plantedMem, plantedComm).MFLUPS
	if got := st.Refine(unseen).MFLUPS; math.Abs(got-want) > 1e-9*want {
		t.Errorf("refined unseen cell = %v MFLUPS, want %v", got, want)
	}
	if _, after, n := st.MAPE("CSP-2", "direct"); n != 4 || after > 1e-9 {
		t.Errorf("MAPE after = %v over %d samples, want ~0 over 4", after, n)
	}
}

// TestRefineKeepsBandAndComposition: at the parent one sample at
// measured/predicted 0.8 turned 100 MFLUPS with band [85, 115] into 80
// MFLUPS with the band left at [85, 115], and left every time term as
// it was, so the terms no longer summed to SecondsPerStep.
func TestRefineKeepsBandAndComposition(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		p := cell("TRC", 1e6, 6e-3, 4e-3) // 100 MFLUPS
		var st Store
		if err := st.Add(pair("w", "TRC", "direct", 8, 100, 80)); err != nil {
			t.Fatal(err)
		}
		out := st.Refine(p)
		if math.Abs(out.MFLUPS-80) > 1e-9 || math.Abs(out.Confidence.LoMFLUPS-68) > 1e-9 || math.Abs(out.Confidence.HiMFLUPS-92) > 1e-9 {
			t.Errorf("refined %v MFLUPS in [%v, %v], want 80 in [68, 92]", out.MFLUPS, out.Confidence.LoMFLUPS, out.Confidence.HiMFLUPS)
		}
		if sum := out.MemS + out.IntraS + out.InterS; math.Abs(sum-out.SecondsPerStep) > 1e-15 {
			t.Errorf("terms sum to %v s, SecondsPerStep is %v", sum, out.SecondsPerStep)
		}
	})
	t.Run("per term", func(t *testing.T) {
		p := cell("CSP-2", 1e6, 6e-3, 4e-3)
		out := plantedStore(t).Refine(p)
		if math.Abs(out.MemS-plantedMem*p.MemS) > 1e-15 || math.Abs(out.IntraS-plantedComm*p.IntraS) > 1e-15 ||
			math.Abs(out.InterS-plantedComm*p.InterS) > 1e-15 {
			t.Errorf("terms %v, %v, %v; want each scaled by its own coefficient", out.MemS, out.IntraS, out.InterS)
		}
		if sum := out.MemS + out.IntraS + out.InterS; math.Abs(sum-out.SecondsPerStep) > 1e-15 {
			t.Errorf("terms sum to %v s, SecondsPerStep is %v", sum, out.SecondsPerStep)
		}
		speed := out.MFLUPS / p.MFLUPS
		if math.Abs(out.Confidence.LoMFLUPS-speed*p.Confidence.LoMFLUPS) > 1e-9 ||
			math.Abs(out.Confidence.HiMFLUPS-speed*p.Confidence.HiMFLUPS) > 1e-9 {
			t.Errorf("band [%v, %v] did not move with %v MFLUPS", out.Confidence.LoMFLUPS, out.Confidence.HiMFLUPS, out.MFLUPS)
		}
	})
}

// TestMAPEScoresLeaveOneOut: the after-correction error of each sample is
// taken with the correction the other samples give. At the parent the
// outlier was scored by a correction it had pulled towards itself.
func TestMAPEScoresLeaveOneOut(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples func() []Sample
	}{
		{"scalar", func() []Sample {
			var out []Sample
			for i, m := range []float64{80, 80, 80, 80, 40} {
				out = append(out, pair("w", "CSP-2", "direct", 8<<i, 100, m))
			}
			return out
		}},
		{"per term", func() []Sample {
			out := plantedStore(t).samples
			outlier := measuredAs(t, cell("CSP-2", 5e6, 0.3e-2, 0.7e-2), 2, 0.5)
			return append(out, outlier)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			samples := tc.samples()
			var st Store
			for _, s := range samples {
				if err := st.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			var want, outlierOut float64
			for i, s := range samples {
				var rest Store
				for k, o := range samples {
					if k != i && rest.Add(o) != nil {
						t.Fatal("re-adding a sample failed")
					}
				}
				e := math.Abs(rest.Correction("CSP-2", "direct").Apply(predictionOf(s)).MFLUPS-s.MFLUPS) / s.MFLUPS
				want += e / float64(len(samples))
				outlierOut = e // the outlier is the last sample
			}
			_, got, n := st.MAPE("CSP-2", "direct")
			if n != len(samples) || math.Abs(got-want) > 1e-9 {
				t.Errorf("MAPE after = %v over %d, want the leave-one-out %v over %d", got, n, want, len(samples))
			}
			last := samples[len(samples)-1]
			outlierIn := math.Abs(st.Correction("CSP-2", "direct").Apply(predictionOf(last)).MFLUPS-last.MFLUPS) / last.MFLUPS
			if outlierOut <= outlierIn {
				t.Errorf("the outlier's error is %v left out, %v in sample; leaving it out should not flatter it", outlierOut, outlierIn)
			}
		})
	}
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
	c := st.Correction("CSP-2", "direct")
	if math.Abs(c.Scalar-1/bias) > 1e-9 || c.Terms.N != 0 {
		t.Errorf("correction = %+v, want the scalar %v", c, 1/bias)
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

// TestCorrectionFallbacks: without three samples with terms, or with
// collinear ones, the scalar of the system and model applies; with no
// sample of them at all, 1. Other systems and models lend nothing.
func TestCorrectionFallbacks(t *testing.T) {
	var st Store
	if c := st.Correction("CSP-2", "direct"); c.Scalar != 1 || c.Terms.N != 0 {
		t.Errorf("empty store correction = %+v, want the scalar 1", c)
	}
	if err := st.Add(pair("w", "TRC", "direct", 36, 100, 80)); err != nil {
		t.Fatal(err)
	}
	// A sample without a prediction is telemetry only.
	if err := st.Add(Sample{Workload: "w", System: "TRC", Ranks: 36, MFLUPS: 85}); err != nil {
		t.Fatal(err)
	}
	if c := st.Correction("TRC", "direct"); math.Abs(c.Scalar-0.8) > 1e-12 || c.Terms.N != 0 {
		t.Errorf("correction = %+v, want the scalar 0.8", c)
	}
	for _, other := range [][2]string{{"CSP-1", "direct"}, {"TRC", "generalized"}} {
		if c := st.Correction(other[0], other[1]); c.Scalar != 1 {
			t.Errorf("%s/%s borrowed a correction: %+v", other[0], other[1], c)
		}
	}
	if _, _, n := st.MAPE("TRC", "direct"); n != 1 {
		t.Errorf("MAPE counted %d samples, want the one carrying a prediction", n)
	}
	// Repeated runs of one cell give collinear rows: the fit fails and
	// the scalar over every sample, the termless one included, applies.
	p := cell("TRC", 1e6, 6e-3, 4e-3)
	for _, m := range []float64{1.1, 1.2, 1.3} {
		if err := st.Add(measuredAs(t, p, m, m)); err != nil {
			t.Fatal(err)
		}
	}
	c := st.Correction("TRC", "direct")
	if want := math.Pow(0.8/(1.1*1.2*1.3), 0.25); c.Terms.N != 0 || math.Abs(c.Scalar-want) > 1e-12 {
		t.Errorf("collinear store correction = %+v, want the scalar %v", c, want)
	}
	// Runs whose communication seems to take negative time fit a
	// negative coefficient, and fall back as well.
	var neg Store
	for _, share := range []float64{0.2, 0.5, 0.8} {
		p := cell("TRC", 1e6, share*1e-2, (1-share)*1e-2)
		if err := neg.Add(measuredAs(t, p, 2, -0.2)); err != nil {
			t.Fatal(err)
		}
	}
	if c := neg.Correction("TRC", "direct"); c.Terms.N != 0 || c.Scalar == 1 {
		t.Errorf("correction = %+v, want the scalar fallback", c)
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
	if c := st.Correction("CSP-1", "direct"); math.Abs(c.Scalar-0.8) > 1e-12 {
		t.Errorf("correction = %+v, want 0.8 from the Tier 1 sample alone", c)
	}
	if before, _, n := st.MAPE("CSP-1", "direct"); n != 1 || math.Abs(before-0.25) > 1e-12 {
		t.Errorf("MAPE = %v over %d samples, want 0.25 over 1", before, n)
	}
	if got := st.Series("w", "CSP-1", 8); len(got) != 3 || got[0].Tier != "" || got[1].Tier != "tier0" {
		t.Errorf("series = %+v, want all three samples with tiers \"\", tier0, tier2", got)
	}
	// Only a Tier 1 prediction hands its terms to the sample.
	p := cell("CSP-1", 1e6, 6e-3, 4e-3)
	p.Tier = perfmodel.Tier2Measured
	if s := FromPrediction(p); s.MemS != 0 || s.CommS != 0 || s.Predicted != p.MFLUPS {
		t.Errorf("Tier 2 sample = %+v, want its throughput without terms", s)
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
	withTerms := pair("w", "s", "direct", 4, 10, 10)
	withTerms.MemS, withTerms.CommS = 1e-3, -1e-3
	if err := st.Add(withTerms); err == nil {
		t.Error("want error for a negative communication term")
	}
	if st.Len() != 0 {
		t.Error("bad samples were stored")
	}
	// Zero is "no prediction": stored, and never a divisor.
	if err := st.Add(pair("w", "s", "direct", 4, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if c := st.Correction("s", "direct"); c.Scalar != 1 {
		t.Errorf("correction over a prediction-less sample = %+v, want 1", c)
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
	var empty Store
	if out := empty.Refine(p); out != p {
		t.Errorf("an empty store changed the prediction: %+v", out)
	}
}

func TestCorrectionScaleInvariance(t *testing.T) {
	// The scalar is a geometric mean of ratios: scaling all predictions
	// by k scales it by 1/k.
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
		ca, cb := a.Correction("S", "direct"), b.Correction("S", "direct")
		return math.Abs(ca.Scalar/cb.Scalar-k) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRefineStaysPositive: whatever valid samples the store holds —
// random, nearly collinear, or fitting a negative coefficient — a refined
// prediction has a finite, positive throughput inside a finite band.
func TestRefineStaysPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var st Store
		share := rng.Float64()
		for i, n := 0, rng.Intn(8); i < n; i++ {
			s := share // nearly collinear: one memory share, jittered
			switch rng.Intn(3) {
			case 0:
				s = rng.Float64()
			case 1:
				s = math.Min(1, share*(1+1e-9*rng.NormFloat64()))
			}
			p := cell("S", 1e6*(0.1+rng.Float64()), s*1e-2, (1-s)*1e-2)
			// Memory and communication factors apart by up to 100x push
			// some fits to a negative coefficient.
			sample := measuredAs(t, p, math.Exp(3*rng.NormFloat64()), math.Exp(3*rng.NormFloat64()))
			if rng.Intn(4) == 0 {
				sample.MemS, sample.CommS = 0, 0 // a sample from before the terms
			}
			if st.Add(sample) != nil {
				return false
			}
		}
		s := rng.Float64()
		out := st.Refine(cell("S", 1e6*(0.1+rng.Float64()), s*1e-2, (1-s)*1e-2))
		ok := func(x float64) bool { return x > 0 && !math.IsInf(x, 0) }
		return ok(out.MFLUPS) && ok(out.SecondsPerStep) && ok(out.Confidence.HiMFLUPS) &&
			out.Confidence.LoMFLUPS <= out.MFLUPS && out.MFLUPS <= out.Confidence.HiMFLUPS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
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
		`[{"time":0,"workload":"w","system":"s","ranks":4,"mflups":5,"predicted_mflups":5,"mem_s":-1}]`,
	} {
		if err := st.Load(strings.NewReader(src)); err == nil {
			t.Errorf("loaded %q", src)
		}
	}
	if st.Len() != 1 {
		t.Errorf("a rejected load left %d samples, want the 1 held before", st.Len())
	}
}
