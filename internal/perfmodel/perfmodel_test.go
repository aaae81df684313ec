package perfmodel

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/mbench"
	"repro/internal/simcloud"
)

func cylinderSolver(t *testing.T) *lbm.Sparse {
	t.Helper()
	dom, err := geometry.Cylinder(48, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, PeriodicX: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func characterizeNoiseless(t *testing.T, sys *machine.System) *Characterization {
	t.Helper()
	c, err := Characterize(sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCharacterizeRecoversSystem(t *testing.T) {
	sys := machine.NewCSP2()
	c := characterizeNoiseless(t, sys)
	if c.System != "CSP-2" || c.CoresPerNode != 36 {
		t.Fatalf("identity wrong: %+v", c)
	}
	if rel := math.Abs(c.Mem.A1-sys.Mem.A1) / sys.Mem.A1; rel > 0.05 {
		t.Errorf("a1 %v, want near %v", c.Mem.A1, sys.Mem.A1)
	}
	if rel := math.Abs(c.Inter.BandwidthMBps-sys.InterNode.BandwidthMBps) / sys.InterNode.BandwidthMBps; rel > 0.02 {
		t.Errorf("inter bandwidth %v, want near %v", c.Inter.BandwidthMBps, sys.InterNode.BandwidthMBps)
	}
	if c.FitQuality.MemR2 < 0.99 || c.FitQuality.InterR2 < 0.99 {
		t.Errorf("noiseless fits poor: %+v", c.FitQuality)
	}
	if len(c.RawInter) == 0 || len(c.RawIntra) == 0 {
		t.Error("raw PingPong sweeps missing")
	}
}

func TestCharacterizeNoisy(t *testing.T) {
	sys := machine.NewCSP2EC()
	c, err := Characterize(sys, 10, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(c.Inter.LatencyUS-sys.InterNode.LatencyUS) / sys.InterNode.LatencyUS; rel > 0.15 {
		t.Errorf("noisy latency fit %v too far from %v", c.Inter.LatencyUS, sys.InterNode.LatencyUS)
	}
}

// sweepSorted reports whether a PingPong sweep is in Bytes order, the
// order interpolateUS reads it in.
func sweepSorted(pts []mbench.PingPongPoint) bool {
	return slices.IsSortedFunc(pts, func(a, b mbench.PingPongPoint) int {
		return cmp.Compare(a.Bytes, b.Bytes)
	})
}

// TestCharacterizeSweepsSorted checks that every raw sweep a
// characterization keeps is sorted by message size, the precondition
// interpolateUS relies on: a CPU system's two PingPong sweeps and a GPU
// instance's PCIe sweep.
func TestCharacterizeSweepsSorted(t *testing.T) {
	cpu, err := Characterize(machine.NewCSP2EC(), 5, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	gpu := characterizeNoiseless(t, machine.NewCSP2GPU())
	for _, sweep := range []struct {
		name string
		pts  []mbench.PingPongPoint
	}{
		{"CSP-2 EC RawInter", cpu.RawInter},
		{"CSP-2 EC RawIntra", cpu.RawIntra},
		{"CSP-2 GPU RawInter", gpu.RawInter},
		{"CSP-2 GPU RawIntra", gpu.RawIntra},
		{"CSP-2 GPU RawPCIe", gpu.RawPCIe},
	} {
		if len(sweep.pts) == 0 || !sweepSorted(sweep.pts) {
			t.Errorf("%s not a sorted sweep: %v", sweep.name, sweep.pts)
		}
	}
}

// TestPredictDirectZeroAllocs pins the direct model's per-message path as
// arithmetic: a direct prediction at 32 ranks allocates nothing, on the
// fitted sweeps (Tier 1), on the spec sheet's link lines (Tier 0) and on
// the table's reference scaled by its interpolated efficiency (Tier 2).
func TestPredictDirectZeroAllocs(t *testing.T) {
	s := cylinderSolver(t)
	sys := machine.NewCSP2()
	p, err := decomp.RCB(s, 32, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	w := simcloud.FromPartition("cyl", s.N(), p)
	req := Request{Model: ModelDirect, Workload: &w}
	tbl, err := DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{NewCalibratedBackend(characterizeNoiseless(t, sys)), NewPhysicsBackend(sys), NewLookupBackend(sys.Abbrev, tbl)} {
		if _, err := b.Predict(req); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := b.Predict(req); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s direct Predict at 32 ranks made %v allocations, want 0", b.Tier(), allocs)
		}
	}
}

func TestInterpolate(t *testing.T) {
	pts := []mbench.PingPongPoint{
		{Bytes: 0, TimeUS: 10},
		{Bytes: 100, TimeUS: 20},
		{Bytes: 200, TimeUS: 40},
	}
	link := machine.LinkModel{BandwidthMBps: 1000, LatencyUS: 2}
	cases := []struct{ m, want float64 }{
		{0, 10}, {50, 15}, {100, 20}, {150, 30}, {200, 40},
		{300, 60}, // extrapolation continues the last slope
		{-10, 10}, // clamp below
	}
	for _, c := range cases {
		if got := interpolateUS(pts, link, c.m); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("interpolateUS(%v) = %v, want %v", c.m, got, c.want)
		}
	}
	// No sweep (a spec sheet): the link line, 5000 B at 1000 MB/s + 2 µs.
	if got := interpolateUS(nil, link, 5000); math.Abs(got-7) > 1e-12 {
		t.Errorf("interpolateUS(nil) = %v, want the link line's 7", got)
	}
}

func TestPredictDirectBasics(t *testing.T) {
	s := cylinderSolver(t)
	sys := machine.NewCSP2()
	c := characterizeNoiseless(t, sys)
	p, err := decomp.RCB(s, 36, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	w := simcloud.FromPartition("cyl", s.N(), p)
	pred, err := c.Predict(Request{Model: ModelDirect, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Model != "direct" || pred.Ranks != 36 {
		t.Fatalf("identity wrong: %+v", pred)
	}
	if pred.SecondsPerStep <= 0 || pred.MFLUPS <= 0 {
		t.Fatalf("non-positive prediction: %+v", pred)
	}
	if pred.MemS <= 0 {
		t.Error("memory component missing")
	}
	// Single node: all comm is intra-node.
	if pred.InterS != 0 {
		t.Errorf("inter-node time %v on one node", pred.InterS)
	}
	if _, err := c.Predict(Request{Model: ModelDirect, Workload: &simcloud.Workload{}}); err == nil {
		t.Error("want error for empty workload")
	}
}

func TestPredictDirectTracksSimulatedTruth(t *testing.T) {
	// The headline claim: a model built only from microbenchmarks must
	// track the "measured" (simulated) performance within a modest factor
	// and reproduce the scaling shape.
	s := cylinderSolver(t)
	sys := machine.NewCSP2()
	c := characterizeNoiseless(t, sys)
	m := lbm.HarveyAccess()

	for _, ranks := range []int{4, 18, 36, 72, 144} {
		p, err := decomp.RCB(s, ranks, m)
		if err != nil {
			t.Fatal(err)
		}
		w := simcloud.FromPartition("cyl", s.N(), p)
		pred, err := c.Predict(Request{Model: ModelDirect, Workload: &w})
		if err != nil {
			t.Fatal(err)
		}
		actual, err := simcloud.Run(w, sys, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratio := pred.MFLUPS / actual.MFLUPS
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("ranks=%d: prediction %v vs simulated %v (ratio %v)", ranks, pred.MFLUPS, actual.MFLUPS, ratio)
		}
		// The simulated truth may legitimately collapse at high rank
		// counts (latency-dominated strong-scaling limit, the paper's
		// "accelerated drop"); the model must track it either way.
	}
}

// TestFlopTimeTinyForLBM checks why the paper could drop the FLOP term
// for CPU LBM: on every catalog spec sheet, a fully populated node's rank
// spends far less time on its points' operations than on their memory
// traffic at the published bandwidth.
func TestFlopTimeTinyForLBM(t *testing.T) {
	const n = 1e6
	bytesPerPoint := lbm.HarveyAccess().PointBytes(19)
	for _, sys := range machine.Catalog() {
		c := SpecSheet(sys)
		perRankBps := c.Mem.A1 * 1e6 / float64(c.CoresPerNode)
		flopT, memT := c.flopS(n), n*bytesPerPoint/perRankBps
		if flopT <= 0 || flopT >= memT/2 {
			t.Errorf("%s: flop time %v not well below memory time %v", sys.Abbrev, flopT, memT)
		}
	}
}

func TestCalibrateGeneral(t *testing.T) {
	s := cylinderSolver(t)
	g, err := CalibrateGeneral(s, lbm.HarveyAccess(), []int{1, 2, 4, 8, 16, 32, 64}, 36)
	if err != nil {
		t.Fatal(err)
	}
	if g.Z.C1 < 0 {
		t.Errorf("z-law c1 %v negative after clamp", g.Z.C1)
	}
	if g.Z.Eval(1) != 1 {
		t.Error("z(1) != 1")
	}
	if g.PointCommBytes <= 0 {
		t.Errorf("PointCommBytes %v not positive", g.PointCommBytes)
	}
	if g.Events.K1 <= 0 || g.Events.K2 <= 0 {
		t.Errorf("event law degenerate: %+v", g.Events)
	}
}

func TestCalibrateGeneralValidation(t *testing.T) {
	s := cylinderSolver(t)
	if _, err := CalibrateGeneral(s, lbm.HarveyAccess(), []int{1, 2}, 36); err == nil {
		t.Error("want error for too few task counts")
	}
	if _, err := CalibrateGeneral(s, lbm.HarveyAccess(), []int{1, 2, 4}, 0); err == nil {
		t.Error("want error for bad coresPerNode")
	}
}

func TestPredictGeneralBasics(t *testing.T) {
	s := cylinderSolver(t)
	sys := machine.NewCSP2()
	c := characterizeNoiseless(t, sys)
	g, err := CalibrateGeneral(s, lbm.HarveyAccess(), []int{1, 2, 4, 8, 16, 32, 64}, sys.CoresPerNode)
	if err != nil {
		t.Fatal(err)
	}
	ws := WorkloadSummary{Name: "cyl", Points: s.N(), BytesSerial: s.BytesSerial(lbm.HarveyAccess())}

	serial, err := c.Predict(Request{Model: ModelGeneral, Summary: &ws, General: g, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.CommBandwidthS != 0 || serial.CommLatencyS != 0 {
		t.Error("serial prediction has communication time")
	}
	p36, err := c.Predict(Request{Model: ModelGeneral, Summary: &ws, General: g, Ranks: 36})
	if err != nil {
		t.Fatal(err)
	}
	if p36.MFLUPS <= serial.MFLUPS {
		t.Errorf("no predicted speedup: %v vs %v", p36.MFLUPS, serial.MFLUPS)
	}
	// Extrapolation beyond the instance size must work (Fig. 11 style).
	p2048, err := c.Predict(Request{Model: ModelGeneral, Summary: &ws, General: g, Ranks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if p2048.MFLUPS <= 0 {
		t.Error("extrapolated prediction not positive")
	}

	if _, err := c.Predict(Request{Model: ModelGeneral, Summary: &ws, General: g, Ranks: 0}); err == nil {
		t.Error("want error for zero ranks")
	}
	if _, err := c.Predict(Request{Model: ModelGeneral, Summary: &WorkloadSummary{}, General: g, Ranks: 4}); err == nil {
		t.Error("want error for empty summary")
	}
}

func TestGeneralTracksDirect(t *testing.T) {
	// Figures 7-8: the generalized prediction drifts from the direct one
	// but stays in its neighborhood.
	s := cylinderSolver(t)
	sys := machine.NewCSP2()
	c := characterizeNoiseless(t, sys)
	m := lbm.HarveyAccess()
	g, err := CalibrateGeneral(s, m, []int{1, 2, 4, 8, 16, 32, 64, 128}, sys.CoresPerNode)
	if err != nil {
		t.Fatal(err)
	}
	ws := WorkloadSummary{Name: "cyl", Points: s.N(), BytesSerial: s.BytesSerial(m)}
	for _, ranks := range []int{18, 36, 72, 144} {
		p, err := decomp.RCB(s, ranks, m)
		if err != nil {
			t.Fatal(err)
		}
		w := simcloud.FromPartition("cyl", s.N(), p)
		direct, err := c.Predict(Request{Model: ModelDirect, Workload: &w})
		if err != nil {
			t.Fatal(err)
		}
		general, err := c.Predict(Request{Model: ModelGeneral, Summary: &ws, General: g, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		ratio := general.MFLUPS / direct.MFLUPS
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("ranks=%d: generalized %v vs direct %v (ratio %v)", ranks, general.MFLUPS, direct.MFLUPS, ratio)
		}
	}
}

func TestEventsLawEdgeCases(t *testing.T) {
	e := EventsLaw{K1: 1, K2: 0.5}
	if got := e.Eval(4, 4); got != 0 {
		t.Errorf("Eval(n==nn) = %v, want 0", got)
	}
	if got := e.Eval(2, 4); got != 0 {
		t.Errorf("Eval(n<nn) = %v, want 0", got)
	}
	if got := e.Eval(64, 2); got <= 0 {
		t.Errorf("Eval(64,2) = %v, want positive", got)
	}
}

func TestFitEventsRoundTrip(t *testing.T) {
	truth := EventsLaw{K1: 2.0, K2: 0.8}
	var ns, nns, evs []float64
	for _, n := range []float64{2, 4, 8, 16, 32, 64, 128, 256} {
		nn := math.Ceil(n / 36)
		ns = append(ns, n)
		nns = append(nns, nn)
		evs = append(evs, truth.Eval(n, nn))
	}
	got, err := FitEvents(ns, nns, evs)
	if err != nil {
		t.Fatal(err)
	}
	if got.R2 < 0.98 {
		t.Errorf("round-trip fit R² = %v; got %+v want %+v", got.R2, got, truth)
	}
}

func TestFitEventsValidation(t *testing.T) {
	if _, err := FitEvents([]float64{1}, []float64{1}, []float64{1}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := FitEvents([]float64{1, 2}, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("want error for mismatched lengths")
	}
}
