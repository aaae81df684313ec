package perfmodel

import (
	"testing"

	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/simcloud"
)

// observations generates (workload, measured) pairs on CSP-2 over a rank
// sweep, the data the feedback loop selects against.
func observations(t *testing.T, s *lbm.Sparse, sys *machine.System, ranks []int) []Observation {
	t.Helper()
	var obs []Observation
	for _, k := range ranks {
		p, err := decomp.RCB(s, k, lbm.HarveyAccess())
		if err != nil {
			t.Fatal(err)
		}
		w := simcloud.FromPartition("cyl", s.N(), p)
		res, err := simcloud.Run(w, sys, 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, Observation{Workload: w, MeasuredMFLUPS: res.MFLUPS})
	}
	return obs
}

func TestSelectTermsKeepsOverheadRejectsFlops(t *testing.T) {
	// The simulated truth carries a kernel overhead the bare model cannot
	// see; the FLOP roofline term is negligible for bandwidth-bound LBM.
	// The paper's add-and-check loop must keep the former and discard the
	// latter.
	s := cylinderSolver(t)
	sys := machine.NewCSP2()
	c := characterizeNoiseless(t, sys)
	obs := observations(t, s, sys, []int{4, 9, 18, 36})

	overhead := OverheadTerm(simcloud.KernelOverhead - 1)
	flops := FlopTerm(
		D3Q19BGK(lbm.HarveyAccess().PointBytes(19)),
		Machine{PeakGFLOPS: 1500, PeakBandwidthGBps: 104},
	)
	res, err := c.SelectTerms([]Term{flops, overhead}, obs, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 1 || res.Kept[0] != overhead.Name {
		t.Errorf("kept %v, want only %q", res.Kept, overhead.Name)
	}
	if len(res.Rejected) != 1 || res.Rejected[0] != "flops" {
		t.Errorf("rejected %v, want only flops", res.Rejected)
	}
	if res.FinalMAPE >= res.BaseMAPE {
		t.Errorf("selection did not improve MAPE: %v -> %v", res.BaseMAPE, res.FinalMAPE)
	}
	if res.FinalMAPE > 0.10 {
		t.Errorf("final MAPE %v still above 10%%", res.FinalMAPE)
	}
}

func TestSelectTermsRejectsAllWhenNoneHelp(t *testing.T) {
	s := cylinderSolver(t)
	sys := machine.NewCSP2()
	c := characterizeNoiseless(t, sys)
	obs := observations(t, s, sys, []int{4, 18})
	// A grossly wrong constant term must not be kept.
	bogus := ConstantTerm("bogus-barrier", 10 /* seconds per step */)
	res, err := c.SelectTerms([]Term{bogus}, obs, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 0 {
		t.Errorf("kept %v, want nothing", res.Kept)
	}
	if res.FinalMAPE != res.BaseMAPE {
		t.Errorf("MAPE changed without kept terms: %v vs %v", res.FinalMAPE, res.BaseMAPE)
	}
}

func TestSelectTermsValidation(t *testing.T) {
	s := cylinderSolver(t)
	c := characterizeNoiseless(t, machine.NewCSP2())
	if _, err := c.SelectTerms(nil, nil, 0.01); err == nil {
		t.Error("want error for no observations")
	}
	obs := observations(t, s, machine.NewCSP2(), []int{4})
	if _, err := c.SelectTerms(nil, obs, -1); err == nil {
		t.Error("want error for negative threshold")
	}
	bad := []Observation{{Workload: obs[0].Workload, MeasuredMFLUPS: 0}}
	if _, err := c.SelectTerms(nil, bad, 0.01); err == nil {
		t.Error("want error for non-positive measurement")
	}
}

func TestPredictWithTerms(t *testing.T) {
	s := cylinderSolver(t)
	sys := machine.NewCSP2()
	c := characterizeNoiseless(t, sys)
	p, err := decomp.RCB(s, 18, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	w := simcloud.FromPartition("cyl", s.N(), p)
	base, err := c.Predict(Request{Model: ModelDirect, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	withTerm, err := c.Predict(Request{Model: ModelDirect, Workload: &w, Terms: []Term{OverheadTerm(0.18)}})
	if err != nil {
		t.Fatal(err)
	}
	if withTerm.SecondsPerStep <= base.SecondsPerStep {
		t.Error("added term did not increase predicted time")
	}
	if withTerm.MFLUPS >= base.MFLUPS {
		t.Error("added term did not decrease predicted throughput")
	}
	// The term-corrected prediction is closer to the simulated truth.
	actual, err := simcloud.Run(w, sys, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errBase, errTerm := absRel(base.MFLUPS, actual.MFLUPS), absRel(withTerm.MFLUPS, actual.MFLUPS); errTerm >= errBase {
		t.Errorf("term did not improve accuracy: %v vs %v", errTerm, errBase)
	}
}

func absRel(pred, meas float64) float64 {
	d := (pred - meas) / meas
	if d < 0 {
		return -d
	}
	return d
}

func TestFlopTimeTinyForLBM(t *testing.T) {
	// The paper drops the FLOP term for CPU LBM; at realistic ceilings the
	// flop time must be well under the memory time for the same points.
	m := Machine{PeakGFLOPS: 1200, PeakBandwidthGBps: 60}
	k := D3Q19BGK(456)
	const n = 1e6
	flopT := FlopTimeS(k, m, n)
	memT := n * k.BytesPerPoint / (m.PeakBandwidthGBps * 1e9)
	if flopT >= memT/2 {
		t.Errorf("flop time %v not well below memory time %v", flopT, memT)
	}
}
