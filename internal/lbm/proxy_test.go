package lbm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/debug"
	"testing"
)

func proxyParams(g float64) Params {
	return Params{Tau: 0.9, Force: [3]float64{g, 0, 0}}
}

// kernels lists the six variants cmd/proxyapp -all runs, in its order.
var kernels = []KernelConfig{
	{Layout: AOS, Pattern: AB},
	{Layout: AOS, Pattern: AA},
	{Layout: SOA, Pattern: AB},
	{Layout: SOA, Pattern: AA},
	{Layout: SOA, Pattern: AB, Unrolled: true},
	{Layout: SOA, Pattern: AA, Unrolled: true},
}

// fieldDiff returns the largest absolute difference in macroscopic fields
// between two proxy runs on the same lattice, over all fluid sites.
func fieldDiff(a, b *Proxy) float64 {
	var maxDiff float64
	for si := 0; si < a.N(); si++ {
		r0, u0, v0, w0 := a.Macro(si)
		r1, u1, v1, w1 := b.Macro(si)
		for _, d := range []float64{r1 - r0, u1 - u0, v1 - v0, w1 - w0} {
			maxDiff = math.Max(maxDiff, math.Abs(d))
		}
	}
	return maxDiff
}

// stateHash is the SHA-256 of a proxy's state, the float64 bits of every
// site's value along every direction, in (site, q) order.
func stateHash(p *Proxy) string {
	h := sha256.New()
	var b [8]byte
	for si := 0; si < p.N(); si++ {
		for _, v := range p.Cell(si) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func runVariant(t *testing.T, cfg KernelConfig, steps int) *Proxy {
	t.Helper()
	p, err := NewProxy(cfg, 10, 4, proxyParams(1e-5))
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	p.Run(steps)
	return p
}

// TestProxyMatchesDenseGoldens holds every variant to the states the
// dense proxy solver computed before the variants became kernels of the
// engine, bit for bit, stepped serially and on four threads: the hash of
// the whole state after 10 steps on cylinder(24, 6) (2 712 sites, the
// dense solver's fluid set), and the centerline speed after 100 steps on
// the nx 96, radius 12 cylinder cmd/proxyapp runs (42 336 sites). The
// three AA variants share one state and the three AB variants another:
// within a pattern the layouts and collision routines agree bitwise.
func TestProxyMatchesDenseGoldens(t *testing.T) {
	if fuses() {
		t.Skip("the goldens were computed without fused multiply-adds")
	}
	const (
		aaHash = "92b2d97569e71211448eb5b957fb594c3eee63ec7d1b6622d16542966b97250c"
		abHash = "2441aa3df99e4a5574607404a86982445c7a372e2e555f25aa19558d1ea24ba2"
		aaLine = 0x3f4fb07384e86aa6
		abLine = 0x3f4fbbf44158c11a
	)
	for _, cfg := range kernels {
		wantHash, wantLine := aaHash, uint64(aaLine)
		if cfg.Pattern == AB {
			wantHash, wantLine = abHash, abLine
		}
		for _, threads := range []int{1, 4} {
			p, err := NewProxy(cfg, 24, 6, proxyParams(1e-5))
			if err != nil {
				t.Fatal(err)
			}
			p.SetThreads(threads)
			p.Run(10)
			if p.FluidPoints() != 2712 {
				t.Fatalf("%v: %d fluid points, the dense solver had 2712", cfg, p.FluidPoints())
			}
			if got := stateHash(p); got != wantHash {
				t.Errorf("%v on %d threads: state after 10 steps hashes to %s, want %s", cfg, threads, got, wantHash)
			}
			if testing.Short() || raceDetector() {
				continue // 100 steps on 42 336 sites, twelve times: minutes under -race
			}
			p, err = NewProxy(cfg, 96, 12, proxyParams(1e-5))
			if err != nil {
				t.Fatal(err)
			}
			p.SetThreads(threads)
			p.Run(100)
			if p.FluidPoints() != 42336 {
				t.Fatalf("%v: %d fluid points, the dense solver had 42336", cfg, p.FluidPoints())
			}
			if got := math.Float64bits(p.CenterlineSpeed()); got != wantLine {
				t.Errorf("%v on %d threads: centerline speed after 100 steps %v (%#x), want %v (%#x)",
					cfg, threads, math.Float64frombits(got), got, math.Float64frombits(wantLine), wantLine)
			}
		}
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestProxyVariantsSamePatternIdentical(t *testing.T) {
	// Within one propagation pattern all layout/collision variants apply
	// the same per-site operator, so every readout agrees bit for bit, at
	// an odd step count as at an even one.
	for _, steps := range []int{19, 20} {
		ref := map[Pattern]*Proxy{}
		for _, cfg := range kernels {
			p := runVariant(t, cfg, steps)
			r, ok := ref[cfg.Pattern]
			if !ok {
				ref[cfg.Pattern] = p
				continue
			}
			for si := 0; si < p.N(); si++ {
				if got, want := p.Cell(si), r.Cell(si); got != want {
					t.Fatalf("%v after %d steps: site %d is %v, %v-%v has %v", cfg, steps, si, got, AOS, cfg.Pattern, want)
				}
			}
			if d := fieldDiff(r, p); d != 0 {
				t.Errorf("%v diverges from %v-%v by %v", cfg, AOS, cfg.Pattern, d)
			}
		}
	}
}

func TestProxyAAMatchesABPhysically(t *testing.T) {
	// AA and AB trajectories are phase-shifted by one collision (the AB
	// state is stored after its pass's collision, the AA state before the
	// next one), so they agree physically, not bitwise: compare near
	// steady state.
	const steps = 600
	ab := runVariant(t, KernelConfig{Layout: AOS, Pattern: AB}, steps)
	aa := runVariant(t, KernelConfig{Layout: AOS, Pattern: AA}, steps)
	scale := ab.CenterlineSpeed()
	if scale <= 0 {
		t.Fatal("no flow developed")
	}
	// The residual is the half-step offset: one un-streamed force
	// increment (O(g)) plus near-wall gradients, a few percent of scale.
	if d := fieldDiff(ab, aa); d > 0.05*scale {
		t.Errorf("AA deviates from AB by %v (flow scale %v)", d, scale)
	}
}

func TestProxyMassConservation(t *testing.T) {
	for _, cfg := range kernels {
		// Without forcing, bounce-back + BGK conserve mass to round-off.
		p, err := NewProxy(cfg, 8, 3.5, proxyParams(0))
		if err != nil {
			t.Fatal(err)
		}
		m0 := p.TotalMass()
		p.Run(50)
		if rel := math.Abs(p.TotalMass()-m0) / m0; rel > 1e-12 {
			t.Errorf("%v: unforced mass drifted by %v", cfg, rel)
		}
		// With forcing, the injected force terms cancel analytically but
		// not bitwise; drift must stay at accumulated round-off scale.
		p, err = NewProxy(cfg, 8, 3.5, proxyParams(1e-5))
		if err != nil {
			t.Fatal(err)
		}
		m0 = p.TotalMass()
		p.Run(50)
		if rel := math.Abs(p.TotalMass()-m0) / m0; rel > 1e-7 {
			t.Errorf("%v: forced mass drifted by %v", cfg, rel)
		}
	}
}

func TestProxyFlowDevelops(t *testing.T) {
	p, err := NewProxy(KernelConfig{Layout: SOA, Pattern: AB, Unrolled: true}, 8, 5, proxyParams(5e-6))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(400)
	if v := p.CenterlineSpeed(); v <= 1e-5 {
		t.Errorf("centerline speed %v; force-driven flow failed to develop", v)
	}
	if v := p.CenterlineSpeed(); v > 0.3 {
		t.Errorf("centerline speed %v; unstable", v)
	}
}

func TestProxyRejectsUnrolledAOS(t *testing.T) {
	if _, err := NewProxy(KernelConfig{Layout: AOS, Pattern: AB, Unrolled: true}, 10, 4, proxyParams(0)); err == nil {
		t.Error("want error for unrolled AOS")
	}
}

func TestProxyRejectsBadParams(t *testing.T) {
	if _, err := NewProxy(KernelConfig{}, 10, 4, Params{Tau: 0.2}); err == nil {
		t.Error("want error for bad tau")
	}
	if _, err := NewProxy(KernelConfig{}, 2, 4, proxyParams(0)); err == nil {
		t.Error("want error for tiny domain")
	}
}

func TestKernelConfigString(t *testing.T) {
	cases := map[string]KernelConfig{
		"AOS-AB":          {Layout: AOS, Pattern: AB},
		"SOA-AA":          {Layout: SOA, Pattern: AA},
		"SOA-AB-unrolled": {Layout: SOA, Pattern: AB, Unrolled: true},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestProxyFluidPoints(t *testing.T) {
	p, err := NewProxy(KernelConfig{Layout: AOS, Pattern: AB}, 16, 5, proxyParams(0))
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pi * 5 * 5 * 16
	got := float64(p.FluidPoints())
	if math.Abs(got-want)/want > 0.2 {
		t.Errorf("FluidPoints = %v, expected near %v", got, want)
	}
}

func TestProxyStepsCounter(t *testing.T) {
	p, err := NewProxy(KernelConfig{Layout: SOA, Pattern: AA}, 8, 3.5, proxyParams(0))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(7)
	if p.Steps() != 7 {
		t.Errorf("Steps = %d, want 7", p.Steps())
	}
}

func TestLayoutPatternStrings(t *testing.T) {
	if AOS.String() != "AOS" || SOA.String() != "SOA" {
		t.Error("layout strings wrong")
	}
	if AB.String() != "AB" || AA.String() != "AA" {
		t.Error("pattern strings wrong")
	}
}
