package experiments

import (
	"strings"
	"sync"
	"testing"
)

// Reports are cached across tests: each regeneration is seconds of work
// and the assertions only read them.
var (
	cacheMu sync.Mutex
	cache   = map[string]Report{}
)

func report(t *testing.T, id string, f func() (Report, error)) Report {
	t.Helper()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if r, ok := cache[id]; ok {
		return r
	}
	r, err := f()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Fatalf("report id %q, want %q", r.ID, id)
	}
	cache[id] = r
	return r
}

func value(t *testing.T, r Report, key string, x float64) float64 {
	t.Helper()
	v, err := r.seriesValue(key, x)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTable1Content(t *testing.T) {
	r := Table1()
	for _, want := range []string{"TRC", "CSP-1", "CSP-2 Small", "CSP-2 EC", "E5-2699", "Platinum 8124M", "56", "100"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	if len(r.Series) != 5 {
		t.Errorf("Table I has %d systems, want 5", len(r.Series))
	}
}

func TestFig3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates full scaling study")
	}
	r := report(t, "fig3", Fig3)
	// Strong scaling rises from 2 to 16 ranks on every system/geometry.
	for key, s := range r.Series {
		if len(s) < 3 {
			t.Fatalf("series %q too short", key)
		}
		if s[0].X != 2 {
			t.Fatalf("series %q does not start at 2 ranks", key)
		}
		at2, at16 := value(t, r, key, 2), value(t, r, key, 16)
		if at16 <= at2 {
			t.Errorf("%s: no strong scaling, %v at 2 vs %v at 16 ranks", key, at2, at16)
		}
	}
	// Figure 3 narrative: the cerebral geometry performs best (wall points
	// are cheaper), the cylinder worst, on the model-evaluation system.
	for _, ranks := range []float64{4, 16} {
		cer := value(t, r, "CSP-2/cerebral", ranks)
		cyl := value(t, r, "CSP-2/cylinder", ranks)
		if cer <= cyl {
			t.Errorf("at %v ranks cerebral (%v) not above cylinder (%v)", ranks, cer, cyl)
		}
	}
}

func TestFig4KernelOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates proxy scaling study")
	}
	r := report(t, "fig4", Fig4)
	// Per-point noise (the node-bandwidth contention draw) can flip
	// single-rank comparisons of nearby curves, so compare curves by their
	// average over a rank window, as a reader of Figure 4 would.
	avg := func(key string) float64 {
		var sum float64
		n := 0
		for _, ranks := range []float64{8, 16, 32} {
			sum += value(t, r, key, ranks)
			n++
		}
		return sum / float64(n)
	}
	for _, sys := range []string{"TRC", "CSP-2"} {
		aosAB := avg(sys + "/AOS-AB")
		aosAA := avg(sys + "/AOS-AA")
		soaAB := avg(sys + "/SOA-AB-unrolled")
		soaAA := avg(sys + "/SOA-AA-unrolled")
		// AA is shifted up from AB (Figure 4's headline).
		if soaAA <= soaAB {
			t.Errorf("%s: unrolled SOA AA (%v) not above AB (%v)", sys, soaAA, soaAB)
		}
		// AOS beats SOA for AB but not for AA (paper's observation).
		if aosAB <= soaAB {
			t.Errorf("%s: AOS-AB (%v) not above SOA-AB (%v)", sys, aosAB, soaAB)
		}
		if aosAA >= soaAA {
			t.Errorf("%s: AOS-AA (%v) not below SOA-AA (%v)", sys, aosAA, soaAA)
		}
	}
}

func TestFig5TwoRegimes(t *testing.T) {
	r := report(t, "fig5", Fig5)
	if len(r.Series) != 12 { // 6 labels x {measured, fit}
		t.Fatalf("fig5 has %d series, want 12", len(r.Series))
	}
	// Bandwidth at full threads is far below the single-thread slope
	// extrapolated — the knee exists.
	for _, sys := range []string{"TRC", "CSP-2"} {
		m := r.Series[sys+"/measured"]
		first, last := m[0], m[len(m)-1]
		linear := first.Y * last.X
		if last.Y > 0.6*linear {
			t.Errorf("%s: no saturation: %v at %v threads vs linear %v", sys, last.Y, last.X, linear)
		}
	}
	// Hyperthreaded sweep extends to 72 threads without bandwidth gain
	// over the physical-core peak.
	hyp := r.Series["CSP-2 Hyp./measured"]
	if hyp[len(hyp)-1].X != 72 {
		t.Fatalf("hyperthreaded sweep ends at %v threads, want 72", hyp[len(hyp)-1].X)
	}
	peak36 := value(t, r, "CSP-2 Hyp./measured", 36)
	at72 := value(t, r, "CSP-2 Hyp./measured", 72)
	if at72 > peak36*1.05 {
		t.Errorf("hyperthreading increased bandwidth: %v at 72 vs %v at 36", at72, peak36)
	}
}

func TestTable2Signs(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: TRC -27.57%, CSP-1 +9.23%, CSP-2 -35.92%, CSP-2 EC -29.07%.
	// The reproduction must match the signs and be within a few points.
	check := func(sys string, wantPct float64) {
		pts := r.Series[sys]
		if len(pts) != 1 {
			t.Fatalf("%s: series shape wrong", sys)
		}
		got := (pts[0].Y - pts[0].X) / pts[0].X * 100
		if got*wantPct < 0 {
			t.Errorf("%s: difference %+.2f%% has wrong sign (paper %+.2f%%)", sys, got, wantPct)
		}
		if got < wantPct-8 || got > wantPct+8 {
			t.Errorf("%s: difference %+.2f%% far from paper's %+.2f%%", sys, got, wantPct)
		}
	}
	check("TRC", -27.57)
	check("CSP-1", 9.23)
	check("CSP-2", -35.92)
	check("CSP-2 EC", -29.07)
}

func TestFig6InterconnectOrdering(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// At every swept size: TRC fastest; EC faster than no-EC.
	trc := r.Series["TRC/fit"]
	ec := r.Series["CSP-2 EC/fit"]
	noEC := r.Series["CSP-2/fit"]
	if len(trc) == 0 || len(trc) != len(ec) || len(ec) != len(noEC) {
		t.Fatal("fit series shapes differ")
	}
	for i := range trc {
		if !(trc[i].Y < ec[i].Y && ec[i].Y < noEC[i].Y) {
			t.Errorf("at %v bytes: want TRC < EC < no-EC, got %v, %v, %v",
				trc[i].X, trc[i].Y, ec[i].Y, noEC[i].Y)
		}
	}
}

func TestTable3Content(t *testing.T) {
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "N/A") {
		t.Error("Table III should mark single-instance systems' comm as N/A")
	}
	if !strings.Contains(r.Text, "72*") {
		t.Error("Table III should flag the hyperthreaded row")
	}
	for _, sys := range []string{"TRC", "CSP-2", "CSP-2 EC", "CSP-2 Hyp.", "CSP-1"} {
		if _, ok := r.Series[sys]; !ok {
			t.Errorf("Table III missing row %q", sys)
		}
	}
}

func TestTable4NoiseClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates 7-day noise study")
	}
	r := report(t, "table4", Table4)
	// The paper's claim: noise has little effect (CV at the percent level)
	// and the cloud is not significantly noisier than the dedicated
	// instance.
	var cvCSP1, cvSmall []float64
	for _, p := range r.Series["CSP-1/cv"] {
		cvCSP1 = append(cvCSP1, p.Y)
	}
	for _, p := range r.Series["CSP-2 Small/cv"] {
		cvSmall = append(cvSmall, p.Y)
	}
	if len(cvCSP1) != 3 || len(cvSmall) != 4 {
		t.Fatalf("rank coverage wrong: %d, %d rows", len(cvCSP1), len(cvSmall))
	}
	var maxAll, sum1, sum2 float64
	for _, cv := range cvCSP1 {
		sum1 += cv
		if cv > maxAll {
			maxAll = cv
		}
	}
	for _, cv := range cvSmall {
		sum2 += cv
		if cv > maxAll {
			maxAll = cv
		}
	}
	if maxAll > 0.05 {
		t.Errorf("noise CV %v exceeds the paper's percent-level regime", maxAll)
	}
	mean1, mean2 := sum1/3, sum2/4
	if mean2 > 2.5*mean1 {
		t.Errorf("cloud CV %v significantly above dedicated %v", mean2, mean1)
	}
}

func TestFig7ModelClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates model-validation study")
	}
	r := report(t, "fig7", Fig7)
	for _, g := range []string{"cylinder", "aorta", "cerebral"} {
		actual := r.Series[g+"/actual"]
		over := 0
		for _, p := range actual {
			d := value(t, r, g+"/direct", p.X)
			ratio := d / p.Y
			if ratio > 1 {
				over++
			}
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("%s: direct model off by %vx at %v ranks", g, ratio, p.X)
			}
		}
		// "Both performance models overpredicted ... in all cases": the
		// overhead the models cannot see makes most points overpredictions.
		if over < len(actual)*2/3 {
			t.Errorf("%s: direct model overpredicts only %d/%d points", g, over, len(actual))
		}
	}
	// Relative performance: cerebral above cylinder in both actual and
	// direct prediction at moderate scale.
	for _, kind := range []string{"actual", "direct"} {
		cer := value(t, r, "cerebral/"+kind, 8)
		cyl := value(t, r, "cylinder/"+kind, 8)
		if cer <= cyl {
			t.Errorf("%s: cerebral (%v) not above cylinder (%v) at 8 ranks", kind, cer, cyl)
		}
	}
}

func TestFig8UnrolledAAClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates proxy model study")
	}
	r := report(t, "fig8", Fig8)
	const ranks = 16
	// "The performance improvement of AA over AB ... occurs only for the
	// unrolled kernels."
	aaU := value(t, r, "SOA-AA-unrolled/actual", ranks)
	abU := value(t, r, "SOA-AB-unrolled/actual", ranks)
	if aaU <= abU {
		t.Errorf("unrolled: AA (%v) not above AB (%v)", aaU, abU)
	}
	aaR := value(t, r, "SOA-AA/actual", ranks)
	abR := value(t, r, "SOA-AB/actual", ranks)
	if aaR > abR*1.10 {
		t.Errorf("rolled: AA (%v) should not outrun AB (%v) appreciably", aaR, abR)
	}
	// Predictions track the AA-vs-AB ordering for the unrolled kernels.
	aaUP := value(t, r, "SOA-AA-unrolled/direct", ranks)
	abUP := value(t, r, "SOA-AB-unrolled/direct", ranks)
	if aaUP <= abUP {
		t.Errorf("direct model misses unrolled AA advantage: %v vs %v", aaUP, abUP)
	}
}

func TestFig9CompositionShift(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates composition study")
	}
	r := report(t, "fig9", Fig9)
	mem := r.Series["mem"]
	first, last := mem[0].X, mem[len(mem)-1].X
	memShare := func(x float64) float64 {
		m := value(t, r, "mem", x)
		tot := m + value(t, r, "intra", x) + value(t, r, "inter", x)
		return m / tot
	}
	if memShare(first) < 0.8 {
		t.Errorf("memory share at %v ranks is %v, want dominant", first, memShare(first))
	}
	if memShare(last) >= memShare(first) {
		t.Errorf("memory share did not shrink with scale: %v -> %v", memShare(first), memShare(last))
	}
	// Inter-node communication appears once the job spans nodes and
	// dominates intra-node time there (Figure 9's green vs purple).
	if inter := value(t, r, "inter", last); inter <= value(t, r, "intra", last) {
		t.Errorf("inter-node time %v not above intra-node at %v ranks", inter, last)
	}
}

func TestFig10LatencyDominatesBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates composition study")
	}
	r := report(t, "fig10", Fig10)
	lat := r.Series["comm-latency"]
	last := lat[len(lat)-1].X
	// "The bulk of the internodal communication time is due to latency and
	// not due to insufficient bandwidth."
	if value(t, r, "comm-latency", last) <= value(t, r, "comm-bw", last) {
		t.Errorf("latency (%v) not above bandwidth time (%v) at %v ranks",
			value(t, r, "comm-latency", last), value(t, r, "comm-bw", last), last)
	}
}

func TestFig11Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates heatmap study")
	}
	r := report(t, "fig11", Fig11)
	// Diagonal is exactly 1.
	for _, sys := range []string{"TRC", "CSP-2", "CSP-2 EC"} {
		if v := value(t, r, sys+"/"+sys, 0); v != 1 {
			t.Errorf("diagonal %s = %v, want 1", sys, v)
		}
	}
	// Paper's Figure 11 ordering at 2048 cores: CSP-2 EC > CSP-2 > TRC.
	ecOverTRC := value(t, r, "CSP-2 EC/TRC", 0)
	csp2OverTRC := value(t, r, "CSP-2/TRC", 0)
	if !(ecOverTRC > csp2OverTRC && csp2OverTRC > 1) {
		t.Errorf("ordering wrong: EC/TRC=%v, CSP-2/TRC=%v", ecOverTRC, csp2OverTRC)
	}
	// Reciprocity (Eq. 17).
	if v := ecOverTRC * value(t, r, "TRC/CSP-2 EC", 0); v < 0.999 || v > 1.001 {
		t.Errorf("reciprocity violated: %v", v)
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	// report fails the test unless each report carries its registry ID.
	for _, a := range Artifacts {
		if r := report(t, a.ID, a.Run); r.Text == "" || len(r.Series) == 0 {
			t.Errorf("report %q is empty", a.ID)
		}
	}
}
