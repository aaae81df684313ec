package core

import (
	"testing"

	"repro/internal/dashboard"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

func framework(t *testing.T) *Framework {
	t.Helper()
	fw, err := NewFramework(machine.Catalog(), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func anatomy(t *testing.T, fw *Framework) *Anatomy {
	t.Helper()
	dom, err := geometry.Cylinder(40, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fw.PrepareAnatomy("cylinder", dom, lbm.Params{Tau: 0.9, PeriodicX: true})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestEndToEndPipeline(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)

	// Predict both models.
	direct, err := fw.PredictDirect(a, "CSP-2", 36)
	if err != nil {
		t.Fatal(err)
	}
	general, err := fw.Predict(a, Query{System: "CSP-2", Model: perfmodel.ModelGeneral, Ranks: 36})
	if err != nil {
		t.Fatal(err)
	}
	if direct.MFLUPS <= 0 || general.MFLUPS <= 0 {
		t.Fatalf("non-positive predictions: %v, %v", direct.MFLUPS, general.MFLUPS)
	}

	// Measure and record.
	meas, err := fw.Measure(a, "CSP-2", 36, 50)
	if err != nil {
		t.Fatal(err)
	}
	if meas.MFLUPS <= 0 {
		t.Fatal("measurement not positive")
	}
	if err := fw.Record(a, direct, meas); err != nil {
		t.Fatal(err)
	}
	if fw.Monitor.Len() != 1 {
		t.Fatalf("monitor has %d samples, want 1", fw.Monitor.Len())
	}

	// After recording, the refined prediction moves toward the measurement.
	refined, err := fw.PredictDirect(a, "CSP-2", 36)
	if err != nil {
		t.Fatal(err)
	}
	beforeErr := abs(direct.MFLUPS - meas.MFLUPS)
	afterErr := abs(refined.MFLUPS - meas.MFLUPS)
	if afterErr > beforeErr+1e-9 {
		t.Errorf("refinement worsened the prediction: %v -> %v (measured %v)",
			direct.MFLUPS, refined.MFLUPS, meas.MFLUPS)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRefinementConvergesOverRounds(t *testing.T) {
	// Iterative refinement: after several predict/measure/record rounds
	// the direct model's error on this system must shrink substantially.
	fw := framework(t)
	a := anatomy(t, fw)
	var firstErr, lastErr float64
	for round := 0; round < 5; round++ {
		pred, err := fw.PredictDirect(a, "CSP-2", 72)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := fw.Measure(a, "CSP-2", 72, 20)
		if err != nil {
			t.Fatal(err)
		}
		relErr := abs(pred.MFLUPS-meas.MFLUPS) / meas.MFLUPS
		if round == 0 {
			firstErr = relErr
		}
		lastErr = relErr
		if err := fw.Record(a, pred, meas); err != nil {
			t.Fatal(err)
		}
	}
	if firstErr > 0.10 && lastErr > firstErr {
		t.Errorf("refinement did not converge: first %.3f, last %.3f", firstErr, lastErr)
	}
	if lastErr > 0.25 {
		t.Errorf("refined model still %.0f%% off", lastErr*100)
	}
}

func TestRecommendEndToEnd(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	best, err := fw.Recommend(a, 128, 1000, dashboard.MaxThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	as, err := fw.Assess(a, 128, 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range as {
		if x.MFLUPS > best.MFLUPS {
			t.Errorf("recommendation %s (%v) beaten by %s (%v)", best.System, best.MFLUPS, x.System, x.MFLUPS)
		}
	}
}

// TestPredict drives the one prediction entry point over both models,
// every tier and the inputs it must refuse. A recorded Tier 1 residual per
// model puts a correction in the monitor first, which makes refinement
// observable: Tier 1 output is the entry's answer moved by it, Tier 0 and
// Tier 2 output is the entry's answer untouched.
func TestPredict(t *testing.T) {
	const system, ranks = "CSP-2", 36
	direct, general := perfmodel.ModelDirect, perfmodel.ModelGeneral
	fw := framework(t)
	a := anatomy(t, fw)
	tbl, err := perfmodel.DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.AttachTable(tbl); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{direct, general} {
		pred, err := fw.Predict(a, Query{System: system, Model: model, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.Record(a, pred, simcloud.Result{MFLUPS: 0.8 * pred.MFLUPS}); err != nil {
			t.Fatal(err)
		}
	}

	e, err := fw.Dashboard.Entry(system)
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.Workload(ranks)
	if err != nil {
		t.Fatal(err)
	}
	unrefined := func(model, tier string) perfmodel.Prediction {
		t.Helper()
		req := perfmodel.Request{Model: model, Tier: tier, Summary: &a.Summary, General: a.General, Ranks: ranks}
		if model == direct {
			req = perfmodel.Request{Model: model, Tier: tier, Workload: &w}
		}
		p, err := e.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	got := map[string]perfmodel.Prediction{}
	for _, c := range []struct {
		name     string
		q        Query
		wantTier string // the tier that must answer; "" means an error
		refined  bool
	}{
		{"direct", Query{system, direct, ranks, ""}, perfmodel.Tier1Calibrated, true},
		{"general", Query{system, general, ranks, ""}, perfmodel.Tier1Calibrated, true},
		{"general by default", Query{system, "", ranks, ""}, perfmodel.Tier1Calibrated, true},
		{"direct tier1", Query{system, direct, ranks, perfmodel.Tier1Calibrated}, perfmodel.Tier1Calibrated, true},
		{"direct tier0", Query{system, direct, ranks, perfmodel.Tier0Physics}, perfmodel.Tier0Physics, false},
		{"general tier0", Query{system, general, ranks, perfmodel.Tier0Physics}, perfmodel.Tier0Physics, false},
		{"direct tier2", Query{system, direct, ranks, perfmodel.Tier2Measured}, perfmodel.Tier2Measured, false},
		{"general tier2", Query{system, general, ranks, perfmodel.Tier2Measured}, perfmodel.Tier2Measured, false},
		{"direct auto", Query{system, direct, ranks, perfmodel.TierAuto}, perfmodel.Tier2Measured, false},
		{"direct unknown system", Query{"nope", direct, 8, ""}, "", false},
		{"general unknown system", Query{"nope", general, 8, ""}, "", false},
		{"unknown model", Query{system, "quantum", ranks, ""}, "", false},
		{"unknown tier", Query{system, direct, ranks, "tier9"}, "", false},
		{"direct beyond the lattice", Query{system, direct, a.Lattice.N() + 1, ""}, "", false},
	} {
		p, err := fw.Predict(a, c.q)
		if c.wantTier == "" {
			if err == nil {
				t.Errorf("%s: want an error, got %+v", c.name, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		got[c.name] = p
		want := unrefined(c.q.Model, c.wantTier)
		if c.refined {
			raw := want
			if want = fw.Monitor.Refine(raw); want.MFLUPS == raw.MFLUPS {
				t.Fatalf("%s: the monitor holds no correction, refinement is unobservable", c.name)
			}
		}
		if p != want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, p, want)
		}
	}
	if got["direct"].MFLUPS == got["general"].MFLUPS || got["direct"].Model == got["general"].Model {
		t.Errorf("the two models gave one answer: %+v", got["direct"])
	}
	if got["general by default"] != got["general"] {
		t.Error("a query naming no model is not the generalized model")
	}
	if p, err := fw.PredictDirect(a, system, ranks); err != nil || p != got["direct"] {
		t.Errorf("PredictDirect = %+v, %v; want Predict's direct Tier 1 answer", p, err)
	}
}

func TestUnknownSystemErrors(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	if _, err := fw.Measure(a, "nope", 8, 10); err == nil {
		t.Error("want error for unknown system in Measure")
	}
	if _, err := fw.Predict(a, Query{System: "nope", Ranks: 8}); err == nil {
		t.Error("want error for unknown system in Predict")
	}
}

func TestDefaultCalibrationCounts(t *testing.T) {
	counts := CalibrationCounts(10000)
	if len(counts) < 3 {
		t.Fatalf("too few counts: %v", counts)
	}
	if counts[0] != 1 {
		t.Errorf("first count %d, want 1", counts[0])
	}
	// Tiny lattice still yields enough counts to fit.
	tiny := CalibrationCounts(10)
	if len(tiny) < 3 {
		t.Errorf("tiny lattice counts: %v", tiny)
	}
}

func TestObserveFeedsMonitor(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	for i := 0; i < 4; i++ {
		if err := fw.Provider.Advance(21600); err != nil { // 6-hour cadence
			t.Fatal(err)
		}
		pred, meas, err := fw.Observe(a, "CSP-2", 36, 20)
		if err != nil {
			t.Fatal(err)
		}
		if pred.MFLUPS <= 0 || meas.MFLUPS <= 0 {
			t.Fatal("observe returned non-positive throughput")
		}
	}
	if fw.Monitor.Len() != 4 {
		t.Errorf("monitor has %d samples, want 4", fw.Monitor.Len())
	}
	if _, _, n := fw.Monitor.MAPE("CSP-2", "direct"); n != 4 {
		t.Errorf("refinement reads %d of the 4 samples", n)
	}
	base, err := fw.Monitor.Baseline("cylinder", "CSP-2", 36)
	if err != nil {
		t.Fatal(err)
	}
	if base.N != 4 || base.Mean <= 0 {
		t.Errorf("baseline wrong: %+v", base)
	}
	// No regression in a healthy series.
	regs, err := fw.Monitor.DetectRegressions(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("false regression: %+v", regs)
	}
}

func TestPrepareAnatomyRejectsBadParams(t *testing.T) {
	fw := framework(t)
	dom, err := geometry.Cylinder(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.PrepareAnatomy("bad", dom, lbm.Params{Tau: 0.1}); err == nil {
		t.Error("want error for unstable tau")
	}
}
