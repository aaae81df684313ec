package machine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryModelTwoRegimes(t *testing.T) {
	m := MemoryModel{A1: 1000, A2: 100, A3: 8}
	if got := m.Bandwidth(4); got != 4000 {
		t.Errorf("Bandwidth(4) = %v, want 4000", got)
	}
	// At the knee the two branches must agree.
	atKnee := m.Bandwidth(8)
	if atKnee != 8000 {
		t.Errorf("Bandwidth(8) = %v, want 8000", atKnee)
	}
	if got := m.Bandwidth(16); got != 100*16+8*(1000-100) {
		t.Errorf("Bandwidth(16) = %v, want %v", got, 100*16+8*900)
	}
	if got := m.Saturation(); got != 8000 {
		t.Errorf("Saturation = %v, want 8000", got)
	}
	// Clamp below 1 thread.
	if got := m.Bandwidth(0); got != 1000 {
		t.Errorf("Bandwidth(0) = %v, want clamp to 1 thread = 1000", got)
	}
}

func TestMemoryModelContinuityProperty(t *testing.T) {
	f := func(a1, a2, a3 float64) bool {
		m := MemoryModel{A1: math.Abs(a1), A2: math.Abs(a2), A3: 1 + math.Abs(a3)}
		if m.A3 > 1e6 || m.A1 > 1e12 || m.A2 > 1e12 {
			return true
		}
		left := m.Bandwidth(m.A3 - 1e-9)
		right := m.Bandwidth(m.A3 + 1e-9)
		return math.Abs(left-right) <= 1e-3*math.Max(1, right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkModelTime(t *testing.T) {
	l := LinkModel{BandwidthMBps: 1000, LatencyUS: 20}
	if got := l.TimeUS(0); got != 20 {
		t.Errorf("TimeUS(0) = %v, want latency 20", got)
	}
	// 1 MB at 1000 MB/s is 1 ms = 1000 µs, plus latency.
	if got := l.TimeUS(1e6); math.Abs(got-1020) > 1e-9 {
		t.Errorf("TimeUS(1MB) = %v, want 1020", got)
	}
}

func TestNodesRounding(t *testing.T) {
	s := NewCSP2() // 36 cores per node
	cases := []struct{ ranks, want int }{
		{1, 1}, {36, 1}, {37, 2}, {72, 2}, {144, 4},
	}
	for _, c := range cases {
		if got := s.Nodes(c.ranks); got != c.want {
			t.Errorf("Nodes(%d) = %d, want %d", c.ranks, got, c.want)
		}
	}
}

func TestNodesPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for ranks <= 0")
		}
	}()
	NewTRC().Nodes(0)
}

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("catalog has %d systems, want 5", len(cat))
	}
	byAbbrev := map[string]*System{}
	for _, s := range cat {
		byAbbrev[s.Abbrev] = s
	}
	// Spot-check Table I values.
	trc := byAbbrev["TRC"]
	if trc.CoresPerNode != 40 || trc.TotalCores != 2000 || trc.InterconnectGbps != 56 {
		t.Errorf("TRC catalog row wrong: %+v", trc)
	}
	csp2 := byAbbrev["CSP-2"]
	if csp2.CoresPerNode != 36 || csp2.MemPerNodeGB != 144 || csp2.InterconnectGbps != 25 {
		t.Errorf("CSP-2 catalog row wrong: %+v", csp2)
	}
	ec := byAbbrev["CSP-2 EC"]
	if ec.InterconnectGbps != 100 || ec.MemPerNodeGB != 192 {
		t.Errorf("CSP-2 EC catalog row wrong: %+v", ec)
	}
	small := byAbbrev["CSP-2 Small"]
	if small.CoresPerNode != 8 || small.TotalCores != 128 {
		t.Errorf("CSP-2 Small catalog row wrong: %+v", small)
	}
	csp1 := byAbbrev["CSP-1"]
	if csp1.CoresPerNode != 16 || csp1.TotalCores != 48 {
		t.Errorf("CSP-1 catalog row wrong: %+v", csp1)
	}
}

func TestTable3ParametersEmbedded(t *testing.T) {
	// The ground-truth memory models must carry the paper's Table III fits.
	trc := NewTRC()
	if trc.Mem.A1 != 6768.24 || trc.Mem.A2 != 369.16 || trc.Mem.A3 != 6.39 {
		t.Errorf("TRC memory model diverges from Table III: %+v", trc.Mem)
	}
	csp2 := NewCSP2()
	if csp2.InterNode.BandwidthMBps != 1804.84 || csp2.InterNode.LatencyUS != 23.59 {
		t.Errorf("CSP-2 link model diverges from Table III: %+v", csp2.InterNode)
	}
	ec := NewCSP2EC()
	if ec.InterNode.BandwidthMBps != 2016.77 || ec.InterNode.LatencyUS != 20.94 {
		t.Errorf("CSP-2 EC link model diverges from Table III: %+v", ec.InterNode)
	}
}

func TestECBeatsNoECOnComm(t *testing.T) {
	// Table III: EC has 211.93 MB/s more bandwidth and 2.65 µs less latency.
	ec, noEC := NewCSP2EC().InterNode, NewCSP2().InterNode
	dBW := ec.BandwidthMBps - noEC.BandwidthMBps
	dLat := noEC.LatencyUS - ec.LatencyUS
	if math.Abs(dBW-211.93) > 1e-9 {
		t.Errorf("EC bandwidth delta = %v, want 211.93", dBW)
	}
	if math.Abs(dLat-2.65) > 1e-9 {
		t.Errorf("EC latency delta = %v, want 2.65", dLat)
	}
	for _, bytes := range []float64{0, 1024, 1 << 20} {
		if ec.TimeUS(bytes) >= noEC.TimeUS(bytes) {
			t.Errorf("EC slower than no-EC at %v bytes", bytes)
		}
	}
}

func TestByAbbrev(t *testing.T) {
	s, err := ByAbbrev("CSP-2 EC")
	if err != nil || s.Abbrev != "CSP-2 EC" {
		t.Errorf("ByAbbrev(CSP-2 EC) = %v, %v", s, err)
	}
	if _, err := ByAbbrev("nope"); err == nil {
		t.Error("want error for unknown system")
	}
}

func TestSampleBandwidthNoiseIsCentered(t *testing.T) {
	s := NewCSP2()
	rng := rand.New(rand.NewSource(1))
	const n = 4000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.SampleBandwidth(18, false, rng)
	}
	mean := sum / n
	want := s.Mem.Bandwidth(18)
	if math.Abs(mean-want)/want > 0.01 {
		t.Errorf("mean sampled bandwidth %v deviates from model %v", mean, want)
	}
}

func TestSampleBandwidthHyperthreadedPlateaus(t *testing.T) {
	s := NewCSP2() // 36 physical cores, 72 vCPUs
	rng := rand.New(rand.NewSource(2))
	var at36, at72 float64
	const n = 500
	for i := 0; i < n; i++ {
		at36 += s.SampleBandwidth(36, true, rng)
		at72 += s.SampleBandwidth(72, true, rng)
	}
	at36 /= n
	at72 /= n
	if at72 > at36 {
		t.Errorf("hyperthreading increased bandwidth: %v > %v", at72, at36)
	}
	// Paper: HT bandwidth tends 20-40%% below published; at minimum it must
	// be visibly below the non-HT curve extrapolation, not catastrophic.
	if at72 < 0.5*at36 {
		t.Errorf("HT penalty too severe: %v vs %v", at72, at36)
	}
}

func TestRunNoiseStats(t *testing.T) {
	s := NewCSP2Small()
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		f := s.RunNoise(rng)
		if f <= 0 {
			t.Fatalf("noise factor %v not positive", f)
		}
		sum += f
		sum2 += f * f
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-1) > 0.005 {
		t.Errorf("noise mean = %v, want ~1", mean)
	}
	if math.Abs(sd/mean-s.NoiseCV) > 0.004 {
		t.Errorf("noise CV = %v, want ~%v", sd/mean, s.NoiseCV)
	}
}

func TestRunNoiseDeterministicGivenSeed(t *testing.T) {
	s := NewCSP1()
	a := s.RunNoise(rand.New(rand.NewSource(9)))
	b := s.RunNoise(rand.New(rand.NewSource(9)))
	if a != b {
		t.Errorf("same seed produced different noise: %v vs %v", a, b)
	}
}

func TestJobCost(t *testing.T) {
	s := NewCSP2() // $3.06 per node-hour, 36 cores/node
	// 72 ranks = 2 nodes for half an hour.
	got := s.JobCost(72, 1800)
	want := 2 * 0.5 * 3.06
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("JobCost = %v, want %v", got, want)
	}
}

func TestLognormalFactorZeroCV(t *testing.T) {
	if got := newLognormal(0).factor(rand.New(rand.NewSource(1))); got != 1 {
		t.Errorf("factor at cv=0 = %v, want 1", got)
	}
}

// TestLognormalMatchesPerDrawFormula: a distribution computed once draws
// bit for bit what the per-draw formula it replaced draws, over 10^4
// seeded draws for every CV the catalog samples with — the fixed jitter
// and message levels, and each system's PostKneeCV and NoiseCV through
// the methods that draw them — and for a zero, a negative and a tiny CV.
func TestLognormalMatchesPerDrawFormula(t *testing.T) {
	perDraw := func(rng *rand.Rand, cv float64) float64 {
		if cv <= 0 {
			return 1
		}
		sigma2 := math.Log(1 + cv*cv)
		mu := -sigma2 / 2
		return math.Exp(mu + math.Sqrt(sigma2)*rng.NormFloat64())
	}
	const draws = 10000
	seed := int64(0)
	check := func(name string, got, want func(*rand.Rand) float64) {
		t.Helper()
		seed++
		gr, wr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if g, w := got(gr), want(wr); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s draw %d: %v, per-draw formula %v", name, i, g, w)
			}
		}
	}
	formula := func(cv float64) func(*rand.Rand) float64 {
		return func(rng *rand.Rand) float64 { return perDraw(rng, cv) }
	}
	check("jitter", jitterNoise.factor, formula(0.005))
	check("message", messageNoise.factor, formula(0.03))
	for _, cv := range []float64{0, -1, 1e-9} {
		check(fmt.Sprintf("cv %v", cv), newLognormal(cv).factor, formula(cv))
	}
	for _, s := range FullCatalog() {
		if s.postKneeDist != newLognormal(s.Mem.PostKneeCV) {
			t.Fatalf("%s: post-knee noise distribution not computed from its CV", s.Abbrev)
		}
		check(s.Abbrev+" RunNoise", s.RunNoise, formula(s.NoiseCV))
		above := int(math.Ceil(s.Mem.A3)) // a STREAM sample past the knee
		bw := s.Mem.Bandwidth(float64(above))
		cv := math.Max(0.005, s.Mem.PostKneeCV)
		check(s.Abbrev+" SampleBandwidth",
			func(rng *rand.Rand) float64 { return s.SampleBandwidth(above, false, rng) },
			func(rng *rand.Rand) float64 { return bw * perDraw(rng, cv) })
	}
	// A system built without its constructor, or with a post-knee CV
	// changed since, draws from its CV as it stands.
	host := &System{Mem: NewCSP2().Mem}
	host.Mem.PostKneeCV = 0.02
	changed := NewCSP2()
	changed.Mem.PostKneeCV = 0.07
	for _, s := range []*System{host, changed} {
		above := int(math.Ceil(s.Mem.A3))
		bw := s.Mem.Bandwidth(float64(above))
		cv := s.Mem.PostKneeCV
		check(fmt.Sprintf("post-knee cv %v", cv),
			func(rng *rand.Rand) float64 { return s.SampleBandwidth(above, false, rng) },
			func(rng *rand.Rand) float64 { return bw * perDraw(rng, cv) })
	}
}

func TestSampleMessageTimeIntraFaster(t *testing.T) {
	s := NewCSP2()
	rng := rand.New(rand.NewSource(4))
	var intra, inter float64
	for i := 0; i < 200; i++ {
		intra += s.SampleMessageTimeUS(4096, true, rng)
		inter += s.SampleMessageTimeUS(4096, false, rng)
	}
	if intra >= inter {
		t.Errorf("intra-node comm not faster: %v vs %v", intra, inter)
	}
}
