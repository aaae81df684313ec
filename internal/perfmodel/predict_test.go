package perfmodel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/simcloud"
)

func testWorkload(t *testing.T, ranks int) (*lbm.Sparse, simcloud.Workload) {
	t.Helper()
	s := cylinderSolver(t)
	p, err := decomp.RCB(s, ranks, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	return s, simcloud.FromPartition("cyl", s.N(), p)
}

// closeTo pins a float against a golden value to a relative tolerance
// loose enough to survive FP-order-of-evaluation differences across
// architectures but tight enough to catch any model change.
func closeTo(t *testing.T, name string, got, want float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > 1e-9 {
		t.Errorf("%s = %v, want %v (rel err %.2e)", name, got, want, math.Abs(got-want)/math.Abs(want))
	}
}

// TestPredictTier1Golden pins the Tier 1 calibrated model against golden
// values. The deleted deprecated wrappers (PredictDirect and friends)
// were thin forwards to Predict, and their equivalence test proved that;
// these goldens were recorded from that same noiseless CSP-2 path, so
// they also pin that the wrapper deletion changed no numbers.
func TestPredictTier1Golden(t *testing.T) {
	c := characterizeNoiseless(t, machine.NewCSP2())
	s, w := testWorkload(t, 16)

	direct, err := c.Predict(Request{Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Model != ModelDirect || direct.System != "CSP-2" || direct.Ranks != 16 {
		t.Fatalf("direct header = %q/%q/%d", direct.Model, direct.System, direct.Ranks)
	}
	closeTo(t, "direct.MFLUPS", direct.MFLUPS, 177.26293215118187)
	closeTo(t, "direct.SecondsPerStep", direct.SecondsPerStep, 6.850840078422471e-05)

	shared, err := c.Predict(Request{Model: ModelDirect, Workload: &w, Occupancy: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "shared.MFLUPS", shared.MFLUPS, 134.36784684327878)

	g, err := CalibrateGeneral(s, lbm.HarveyAccess(), []int{1, 2, 4, 8, 16, 32}, 36)
	if err != nil {
		t.Fatal(err)
	}
	ws := WorkloadSummary{Name: "cyl", Points: s.N(), BytesSerial: s.BytesSerial(lbm.HarveyAccess())}
	gen, err := c.Predict(Request{Summary: &ws, General: g, Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Model != ModelGeneral {
		t.Fatalf("general model = %q", gen.Model)
	}
	closeTo(t, "general.MFLUPS", gen.MFLUPS, 167.00156125078988)
}

// TestPredictTier1Provenance checks the provenance stamped on every
// calibrated prediction: tier name, fit residual, confidence band, and
// the Figure-11 extrapolation flag.
func TestPredictTier1Provenance(t *testing.T) {
	c := characterizeNoiseless(t, machine.NewCSP2())
	s, w := testWorkload(t, 16)

	p, err := c.Predict(Request{Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tier != Tier1Calibrated {
		t.Errorf("Tier = %q, want %q", p.Tier, Tier1Calibrated)
	}
	if p.Extrapolated {
		t.Error("in-range direct prediction flagged extrapolated")
	}
	if p.FitResidual < 0 || p.FitResidual > 0.5 {
		t.Errorf("FitResidual = %v out of plausible range", p.FitResidual)
	}
	if p.Confidence.LoMFLUPS >= p.MFLUPS || p.Confidence.HiMFLUPS <= p.MFLUPS {
		t.Errorf("confidence band %+v does not bracket MFLUPS %v", p.Confidence, p.MFLUPS)
	}

	// Tier selector on a bare characterization: "" and tier1 work,
	// other tiers are refused, junk is named invalid.
	if _, err := c.Predict(Request{Workload: &w, Tier: Tier1Calibrated}); err != nil {
		t.Errorf("explicit tier1 rejected: %v", err)
	}
	if _, err := c.Predict(Request{Workload: &w, Tier: Tier2Measured}); err == nil {
		t.Error("bare characterization accepted tier2")
	}
	if _, err := c.Predict(Request{Workload: &w, Tier: "best"}); err == nil || !strings.Contains(err.Error(), "valid") {
		t.Errorf("unknown tier error %v does not name the valid set", err)
	}

	// Ranks beyond the characterized instance flag extrapolation.
	g, err := CalibrateGeneral(s, lbm.HarveyAccess(), []int{1, 2, 4, 8}, 36)
	if err != nil {
		t.Fatal(err)
	}
	ws := WorkloadSummary{Name: "cyl", Points: s.N(), BytesSerial: s.BytesSerial(lbm.HarveyAccess())}
	far, err := c.Predict(Request{Summary: &ws, General: g, Ranks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if !far.Extrapolated {
		t.Error("2048 ranks on a 144-core characterization not flagged extrapolated")
	}
	near, err := c.Predict(Request{Summary: &ws, General: g, Ranks: 36})
	if err != nil {
		t.Fatal(err)
	}
	if near.Extrapolated {
		t.Error("in-range generalized prediction flagged extrapolated")
	}
}

func TestPredictInfersModel(t *testing.T) {
	c := characterizeNoiseless(t, machine.NewCSP2())
	s, w := testWorkload(t, 8)

	p, err := c.Predict(Request{Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != ModelDirect {
		t.Errorf("inferred model %q, want %q", p.Model, ModelDirect)
	}

	g, err := CalibrateGeneral(s, lbm.HarveyAccess(), []int{1, 2, 4, 8}, 36)
	if err != nil {
		t.Fatal(err)
	}
	ws := WorkloadSummary{Name: "cyl", Points: s.N(), BytesSerial: s.BytesSerial(lbm.HarveyAccess())}
	p, err = c.Predict(Request{Summary: &ws, General: g, Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != ModelGeneral {
		t.Errorf("inferred model %q, want %q", p.Model, ModelGeneral)
	}
}

func TestPredictValidation(t *testing.T) {
	c := characterizeNoiseless(t, machine.NewCSP2())
	s, w := testWorkload(t, 8)
	ws := WorkloadSummary{Name: "cyl", Points: s.N(), BytesSerial: s.BytesSerial(lbm.HarveyAccess())}

	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"empty", Request{}, "neither"},
		{"ambiguous", Request{Workload: &w, Summary: &ws}, "disambiguate"},
		{"ranks disagree", Request{Workload: &w, Ranks: 99}, "decomposes into"},
		{"direct without workload", Request{Model: ModelDirect}, "needs a decomposed workload"},
		{"general without summary", Request{Model: ModelGeneral}, "needs a workload summary"},
		{"unknown model", Request{Model: "quantum", Workload: &w}, "unknown model"},
		{"unknown tier", Request{Workload: &w, Tier: "tier9"}, "unknown tier"},
		{"foreign tier", Request{Workload: &w, Tier: Tier0Physics}, "use a Predictor"},
	}
	for _, tc := range cases {
		_, err := c.Predict(tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

// TestTier0DirectCommIsMaxOverTasks pins Eq. 6 on the spec sheet: the
// step's communication is the largest task's total, not the largest
// on-node time plus the largest off-node time. Tier 0 once summed the
// two maxima. On CSP-1 (16 cores a node) 17 equal tasks span two nodes;
// task 0 sends only on-node and task 16 only off-node.
func TestTier0DirectCommIsMaxOverTasks(t *testing.T) {
	sys := machine.NewCSP1()
	cores := sys.CoresPerNode
	w := simcloud.Workload{Name: "hand", Points: 100 * (cores + 1), Tasks: make([]simcloud.TaskSpec, cores+1)}
	for i := range w.Tasks {
		w.Tasks[i].Bytes = 1e6
	}
	const onNodeBytes, offNodeBytes = 68e4, 1e4
	w.Tasks[0].Sends = []simcloud.Message{{Peer: 1, Bytes: onNodeBytes}}
	w.Tasks[cores].Sends = []simcloud.Message{{Peer: 0, Bytes: offNodeBytes}}

	p, err := NewPhysicsBackend(sys).Predict(Request{Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	nodalBps := sys.PublishedMemBWMBps * 1e6
	maxMem := w.Tasks[0].Bytes / (nodalBps / float64(cores)) // a full node's share
	intra0 := 2 * onNodeBytes / nodalBps
	inter1 := 2 * offNodeBytes / (sys.InterconnectGbps * 1e9 / 8)
	closeTo(t, "MemS", p.MemS, maxMem)
	closeTo(t, "IntraS", p.IntraS, intra0)
	closeTo(t, "InterS", p.InterS, inter1)
	closeTo(t, "SecondsPerStep", p.SecondsPerStep, maxMem+math.Max(intra0, inter1))
	if summed := maxMem + intra0 + inter1; math.Abs(p.SecondsPerStep-summed) < 0.1*math.Min(intra0, inter1) {
		t.Errorf("SecondsPerStep %v adds both tasks' communication (%v)", p.SecondsPerStep, summed)
	}
}

// TestPredictRanksConsistent accepts an explicit rank count that agrees
// with the decomposition.
func TestPredictRanksConsistent(t *testing.T) {
	c := characterizeNoiseless(t, machine.NewCSP2())
	_, w := testWorkload(t, 8)
	if _, err := c.Predict(Request{Workload: &w, Ranks: len(w.Tasks)}); err != nil {
		t.Fatalf("consistent ranks rejected: %v", err)
	}
}
