package lbm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geometry"
)

// referenceInletProfile is the per-site inlet profile as the solver built
// it before the boundary-site list, verbatim: the Poiseuille velocity
// u(r) = UMax * (1 - (r/R)^2) about the inlet centroid at every inlet
// site, zero elsewhere.
func referenceInletProfile(s *Sparse) []float64 {
	inletU := make([]float64, s.n)
	var cy, cz float64
	count := 0
	for si := 0; si < s.n; si++ {
		if s.types[si] == geometry.Inlet {
			_, y, z := s.coords(si)
			cy += float64(y)
			cz += float64(z)
			count++
		}
	}
	if count == 0 {
		return inletU
	}
	cy /= float64(count)
	cz /= float64(count)
	var rMax float64
	for si := 0; si < s.n; si++ {
		if s.types[si] == geometry.Inlet {
			_, y, z := s.coords(si)
			dy, dz := float64(y)-cy, float64(z)-cz
			rMax = math.Max(rMax, math.Sqrt(dy*dy+dz*dz))
		}
	}
	if rMax == 0 {
		rMax = 1 // single-site inlet: flat profile
	}
	// R is half a site beyond the outermost fluid site (the true wall).
	r2 := (rMax + 0.5) * (rMax + 0.5)
	for si := 0; si < s.n; si++ {
		if s.types[si] == geometry.Inlet {
			_, y, z := s.coords(si)
			dy, dz := float64(y)-cy, float64(z)-cz
			inletU[si] = s.Params().UMax * (1 - (dy*dy+dz*dz)/r2)
		}
	}
	return inletU
}

// referenceState is the flow referenceStep advances on a solver's lattice:
// two arrays, both in the natural layout, the step count, and the flat
// link table the step read before runs: every site's Lattice.LinkRow, back
// to back, derived here and not taken from the solver's Links.
type referenceState struct {
	f, fnew []float64
	steps   int
	neigh   []int32
}

// newReference copies the state of s.
func newReference(s *Sparse) *referenceState {
	r := &referenceState{f: make([]float64, s.n*NQ), fnew: make([]float64, s.n*NQ), steps: s.steps, neigh: make([]int32, s.n*NQ)}
	for si := 0; si < s.n; si++ {
		c := s.Cell(si)
		copy(r.f[si*NQ:], c[:])
		x, y, z := s.SiteCoords(si)
		s.LinkRow((*[NQ]int32)(r.neigh[si*NQ:]), si, x, y, z)
	}
	return r
}

// referenceStep is Sparse.Step as it was before the fused step body,
// verbatim but for the inlet profile, which the solver no longer keeps per
// site and the caller hands in (referenceInletProfile), and the two
// arrays and the flat link table, which the solver no longer keeps and r
// holds: collide in place through the rolled CollideCell, pull-stream
// into fnew with halfway bounce-back, then override inlets and outlets by
// scanning every site's type. It is the oracle Block's two passes, the
// boundary list and every readout are held to, slot by slot.
func referenceStep(s *Sparse, r *referenceState, inletU []float64) {
	fx, fy, fz := s.Params().Force[0], s.Params().Force[1], s.Params().Force[2]

	// Collision, in place on r.f, one window per site.
	f := r.f
	w := f
	for len(w) >= NQ {
		cell := (*[NQ]float64)(w[:NQ])
		w = w[NQ:]
		CollideCell(cell, s.Params(), fx, fy, fz)
	}

	// Pull streaming into r.fnew: f_q(x, t+1) = f*_q(x - c_q, t); when the
	// upstream site is solid, halfway bounce-back reads the opposite
	// distribution of the local cell.
	fnew := r.fnew
	fw, nw, ww := f, fnew, r.neigh
	for len(fw) >= NQ && len(nw) >= NQ && len(ww) >= NQ {
		lw := (*[NQ]float64)(fw[:NQ])
		out := (*[NQ]float64)(nw[:NQ])
		nb := (*[NQ]int32)(ww[:NQ])
		fw, nw, ww = fw[NQ:], nw[NQ:], ww[NQ:]
		out[0] = lw[0]
		referencePull(out, lw, f, nb, 1, 2)
		referencePull(out, lw, f, nb, 2, 1)
		referencePull(out, lw, f, nb, 3, 4)
		referencePull(out, lw, f, nb, 4, 3)
		referencePull(out, lw, f, nb, 5, 6)
		referencePull(out, lw, f, nb, 6, 5)
		referencePull(out, lw, f, nb, 7, 8)
		referencePull(out, lw, f, nb, 8, 7)
		referencePull(out, lw, f, nb, 9, 10)
		referencePull(out, lw, f, nb, 10, 9)
		referencePull(out, lw, f, nb, 11, 12)
		referencePull(out, lw, f, nb, 12, 11)
		referencePull(out, lw, f, nb, 13, 14)
		referencePull(out, lw, f, nb, 14, 13)
		referencePull(out, lw, f, nb, 15, 16)
		referencePull(out, lw, f, nb, 16, 15)
		referencePull(out, lw, f, nb, 17, 18)
		referencePull(out, lw, f, nb, 18, 17)
	}

	// Boundary conditions by equilibrium override.
	if !s.Params().PeriodicX {
		var bc [NQ]float64
		scale := s.Params().Pulsatile.Scale(r.steps)
		w := fnew
		for si, t := range s.types {
			if len(w) < NQ || si >= len(inletU) {
				break
			}
			cw := (*[NQ]float64)(w[:NQ])
			w = w[NQ:]
			switch t {
			case geometry.Inlet:
				Equilibrium(1, inletU[si]*scale, 0, 0, &bc)
				*cw = bc
			case geometry.Outlet:
				_, ux, uy, uz := Moments(cw)
				Equilibrium(1, ux, uy, uz, &bc) // zero-pressure: rho pinned to 1
				*cw = bc
			}
		}
	}

	r.f, r.fnew = r.fnew, r.f
	r.steps++
}

func referencePull(out, lw *[NQ]float64, f []float64, nb *[NQ]int32, q, oq int) {
	if off := int(nb[oq])*NQ + q; uint(off) < uint(len(f)) {
		out[q] = f[off]
	} else {
		out[q] = lw[oq]
	}
}

// The bitwise oracles of this file assume the compiler contracts no
// multiply and add into a fused multiply-add, which would round the
// rolled and the unrolled loops differently. That holds on amd64 — what
// CI and the benchmark run — at the default GOAMD64 level. Where Go does
// fuse (arm64, ppc64le, s390x, riscv64, GOAMD64=v3) the oracles fall back
// to fmaUlps units in the last place per collision (closeEnough): a
// collision is a few dozen roundings on values of order the populations
// themselves.
const fmaUlps = 64

var fmaA, fmaB = 1 + 0x1p-30, -(1 + 0x1p-29)

// fuses reports whether this build contracts x*y + z: the product of
// 1 + 2^-30 with itself is 1 + 2^-29 + 2^-60, whose last term survives
// only a fused add.
func fuses() bool { return fmaA*fmaA+fmaB != 0 }

// closeEnough is bitwise equality, or, in a build that fuses, agreement
// within ulps units in the last place of the larger of scale (the size of
// the populations the value was computed from) and the values themselves.
func closeEnough(got, want, scale float64, ulps int) bool {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	if !fuses() {
		return false
	}
	m := math.Max(scale, math.Max(math.Abs(got), math.Abs(want)))
	return math.Abs(got-want) <= float64(ulps)*m*0x1p-52
}

// matchReference compares every readout of s with the reference state r
// on the same lattice: every slot through Cell, and Macro, TotalMass and
// MaxSpeed, each summed in the order the solver documents. tol is the ulp
// bound of closeEnough, used only by a build that fuses.
func matchReference(t *testing.T, s *Sparse, r *referenceState, tol int) {
	t.Helper()
	if s.Steps() != r.steps {
		t.Fatalf("step counts differ: %d, reference %d", s.Steps(), r.steps)
	}
	var mass, vmax float64
	for si := 0; si < s.N(); si++ {
		got := s.Cell(si)
		want := (*[NQ]float64)(r.f[si*NQ : si*NQ+NQ])
		for q := range want {
			if !closeEnough(got[q], want[q], 1, tol) {
				t.Fatalf("step %d site %d q %d: got %v (%#x), reference %v (%#x)", r.steps, si, q,
					got[q], math.Float64bits(got[q]), want[q], math.Float64bits(want[q]))
			}
			mass += want[q]
		}
		rho, ux, uy, uz := Moments(want)
		vmax = math.Max(vmax, math.Sqrt(ux*ux+uy*uy+uz*uz))
		gr, gx, gy, gz := s.Macro(si)
		for k, pair := range [][2]float64{{gr, rho}, {gx, ux}, {gy, uy}, {gz, uz}} {
			if !closeEnough(pair[0], pair[1], 1, tol) {
				t.Fatalf("step %d site %d: Macro component %d is %v, reference %v", r.steps, si, k, pair[0], pair[1])
			}
		}
	}
	if got := s.TotalMass(); !closeEnough(got, mass, mass, tol) {
		t.Fatalf("step %d: TotalMass %v, reference %v", r.steps, got, mass)
	}
	if got := s.MaxSpeed(); !closeEnough(got, vmax, 1, tol) {
		t.Fatalf("step %d: MaxSpeed %v, reference %v", r.steps, got, vmax)
	}
}

// TestStepMatchesReference holds the AA step to the two-pass one after
// every step, even and odd, over the cases that between them reach every
// arm of both passes: bulk, wall (bounce-back), inlets and outlets after
// either pass, BGK and TRT each with and without a body force, pulsation,
// periodic wrap with forcing in all three components, and a single-site
// inlet's flat profile; and the proxy's three AA variants on the periodic
// case, serially and split across threads.
func TestStepMatchesReference(t *testing.T) {
	pipe := func() (*geometry.Domain, error) {
		// One inlet site, a bulk site, one outlet site, solid around.
		dom := &geometry.Domain{Name: "pipe", NX: 3, NY: 3, NZ: 3, Types: make([]geometry.PointType, 27)}
		dom.Types[13-1], dom.Types[13], dom.Types[13+1] = geometry.Inlet, geometry.Bulk, geometry.Outlet
		return dom, nil
	}
	cases := []struct {
		name string
		dom  func() (*geometry.Domain, error)
		p    Params
	}{
		{"aorta-steady-bgk", func() (*geometry.Domain, error) { return geometry.Aorta(4) },
			Params{Tau: 0.9, UMax: 0.02}},
		{"aorta-pulsatile-trt", func() (*geometry.Domain, error) { return geometry.Aorta(4) },
			Params{Tau: 0.8, UMax: 0.02, Collision: TRT, Pulsatile: Waveform{Period: 25, Amplitude: 0.5}}},
		{"aorta-pulsatile-bgk-force", func() (*geometry.Domain, error) { return geometry.Aorta(4) },
			Params{Tau: 0.9, UMax: 0.02, Force: [3]float64{2e-6, 0, -1e-6}, Pulsatile: Waveform{Period: 7, Amplitude: 0.5}}},
		{"periodic-cylinder-force3", func() (*geometry.Domain, error) { return geometry.Cylinder(12, 4) }, periodicForce3},
		{"periodic-cylinder-trt-force", func() (*geometry.Domain, error) { return geometry.Cylinder(12, 4) },
			Params{Tau: 0.7, PeriodicX: true, Collision: TRT, Force: [3]float64{1e-5, 2e-6, 0}}},
		{"single-inlet-site", pipe, Params{Tau: 0.9, UMax: 0.05}},
	}
	const steps = 60
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dom, err := tc.dom()
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewSparse(dom, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			matchSteps(t, got, got.Step, steps)
		})
	}
	for _, cfg := range kernels {
		if cfg.Pattern != AA {
			continue // an AB state is one collision away from the reference's
		}
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("proxy-%v-%d-threads", cfg, threads), func(t *testing.T) {
				got, step := proxyStepper(t, cfg, threads, periodicForce3)
				matchSteps(t, got, step, steps)
			})
		}
	}
}

// matchSteps steps got and a reference from its state, comparing them
// after each step.
func matchSteps(t *testing.T, got *Sparse, step func(), steps int) {
	t.Helper()
	want := newReference(got)
	inletU := referenceInletProfile(got)
	for i := 1; i <= steps; i++ {
		step()
		referenceStep(got, want, inletU)
		// Each step re-collides: the bound is per step, on states kept
		// from drifting by comparing every step.
		matchReference(t, got, want, fmaUlps*i)
	}
}

// periodicForce3 is the periodic case of TestStepMatchesReference: flow
// driven by a force with all three components.
var periodicForce3 = Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, -3e-6, 2e-6}}

// proxyStepper builds the proxy's variant cfg, stepping on threads
// threads, on the lattice of NewSparse(Cylinder(12, 4), p) for a periodic
// p: the solver the reference reads, and its step.
func proxyStepper(t *testing.T, cfg KernelConfig, threads int, p Params) (*Sparse, func()) {
	t.Helper()
	pr, err := NewProxy(cfg, 12, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	pr.SetThreads(threads)
	return &pr.Sparse, pr.Step
}

// TestSetCellAtEitherParity: SetCell then Cell returns the cell written,
// at an odd step count as at an even one, and a state so edited steps on
// as the reference does from the same edit; on the aorta and on the
// proxy's six variants (the AB ones without a reference, which their
// states are one collision away from).
func TestSetCellAtEitherParity(t *testing.T) {
	dom, err := geometry.Aorta(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparse(dom, Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("aorta", func(t *testing.T) { editAndStep(t, s, s.Step, true) })
	for _, cfg := range kernels {
		t.Run("proxy-"+cfg.String(), func(t *testing.T) {
			got, step := proxyStepper(t, cfg, 1, periodicForce3)
			editAndStep(t, got, step, cfg.Pattern == AA)
		})
	}
}

// editAndStep steps s six times, overwriting 25 seeded cells after each
// step, then three more, and holds it to the reference from the same edits
// after each step when reference is set.
func editAndStep(t *testing.T, s *Sparse, step func(), reference bool) {
	var ref *referenceState
	var inletU []float64
	if reference {
		ref, inletU = newReference(s), referenceInletProfile(s)
	}
	advance := func(i int) {
		step()
		if ref != nil {
			referenceStep(s, ref, inletU)
			matchReference(t, s, ref, fmaUlps*i)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 6; i++ {
		advance(i)
		for k := 0; k < 25; k++ {
			si := rng.Intn(s.N())
			var c [NQ]float64
			Equilibrium(1+0.01*rng.NormFloat64(), 0.01*rng.NormFloat64(), 0.01*rng.NormFloat64(), 0, &c)
			s.SetCell(si, c)
			if ref != nil {
				copy(ref.f[si*NQ:], c[:])
			}
			if got := s.Cell(si); got != c {
				t.Fatalf("step %d site %d: Cell after SetCell is %v, want %v", i, si, got, c)
			}
		}
		if ref != nil {
			matchReference(t, s, ref, fmaUlps*i)
		}
	}
	for i := 7; i <= 9; i++ {
		advance(i)
	}
}

// TestCollideBGKMatchesCollideCell is the property the step body's BGK
// arm rests on: over seeded random cells — equilibria with perturbations,
// raw populations of either sign, cells whose velocity components are +0
// or −0, populations that are −0, and the all-zero cell — with and
// without a body force, the unrolled collision returns CollideCell's bits.
func TestCollideBGKMatchesCollideCell(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := math.Copysign(0, -1)
	cells := [][NQ]float64{
		{}, // all zero
	}
	var allNeg [NQ]float64
	for q := range allNeg {
		allNeg[q] = negZero
	}
	cells = append(cells, allNeg)
	for i := 0; i < 12000; i++ {
		var c [NQ]float64
		switch i % 4 {
		case 0: // near equilibrium, as a running flow is
			Equilibrium(0.9+0.2*rng.Float64(), 0.1*rng.NormFloat64(), 0.1*rng.NormFloat64(), 0.1*rng.NormFloat64(), &c)
			for q := range c {
				c[q] += 1e-3 * rng.NormFloat64()
			}
		case 1: // raw populations, negative ones included
			for q := range c {
				c[q] = rng.NormFloat64()
			}
		case 2: // opposite pairs equal: every velocity sum cancels to ±0
			for q := 1; q < NQ; q += 2 {
				v := rng.Float64()
				c[q], c[q+1] = v, v
			}
			c[0] = rng.Float64()
			if i%8 == 2 { // −0 populations among them
				c[1], c[2], c[5] = negZero, negZero, negZero
			}
		case 3: // sparse cells: zeros of both signs beside a few values
			for q := range c {
				switch rng.Intn(3) {
				case 0:
					c[q] = negZero
				case 1:
					c[q] = rng.NormFloat64()
				}
			}
		}
		cells = append(cells, c)
	}
	forces := [][3]float64{
		{},
		{1e-5, 0, 0},
		{0, -2e-6, 0},
		{1e-5, -3e-6, 2e-6},
		{-1e-3, 1e-3, 1e-2},
	}
	for _, tau := range []float64{0.51, 0.9, 1.7} {
		p := Params{Tau: tau}
		omega := 1 / tau
		for _, g := range forces {
			for i, c := range cells {
				got, want := c, c
				collideBGK(&got, &got, omega, g[0], g[1], g[2])
				CollideCell(&want, p, g[0], g[1], g[2])
				var scale float64
				for q := range c {
					scale = math.Max(scale, math.Abs(c[q]))
				}
				for q := range want {
					if !closeEnough(got[q], want[q], scale, fmaUlps) {
						t.Fatalf("tau %v force %v cell %d %v: q %d got %v (%#x), CollideCell %v (%#x)", tau, g, i, c, q,
							got[q], math.Float64bits(got[q]), want[q], math.Float64bits(want[q]))
					}
				}
			}
		}
	}
}

// BenchmarkCollide times the collision alone on cells that stay in cache:
// the rolled CollideCell the step body used to call against collideBGK.
func BenchmarkCollide(b *testing.B) {
	var cells [256][NQ]float64
	rng := rand.New(rand.NewSource(1))
	for i := range cells {
		Equilibrium(1, 0.05*rng.NormFloat64(), 0.05*rng.NormFloat64(), 0.05*rng.NormFloat64(), &cells[i])
	}
	p := Params{Tau: 0.9}
	omega := 1 / p.Tau
	b.Run("rolled", func(b *testing.B) {
		work := cells
		for i := 0; i < b.N; i++ {
			CollideCell(&work[i%len(work)], p, 0, 0, 0)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		work := cells
		for i := 0; i < b.N; i++ {
			collideBGK(&work[i%len(work)], &work[i%len(work)], omega, 0, 0, 0)
		}
	})
}

// BenchmarkSparseStep times a whole timestep on the benchmark's lattice
// (aorta@16, 207k sites: out of cache), the two-pass reference beside the
// AA step, and reports it per site; the AA step also reports its even and
// its odd pass apart, as even-ns/site and odd-ns/site.
func BenchmarkSparseStep(b *testing.B) {
	dom, err := geometry.Aorta(16)
	if err != nil {
		b.Fatal(err)
	}
	newSparse := func(b *testing.B) *Sparse {
		s, err := NewSparse(dom, Params{Tau: 0.9, UMax: 0.02})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	perSite := func(d time.Duration, steps, sites int) float64 {
		return float64(d.Nanoseconds()) / float64(steps) / float64(sites)
	}
	b.Run("reference", func(b *testing.B) {
		s := newSparse(b)
		r, inletU := newReference(s), referenceInletProfile(s)
		referenceStep(s, r, inletU) // touch both arrays
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			referenceStep(s, r, inletU)
		}
		ns := perSite(b.Elapsed(), b.N, s.N())
		b.ReportMetric(ns, "ns/site")
		b.ReportMetric(1e3/ns, "MFLUPS")
	})
	b.Run("aa", func(b *testing.B) {
		s := newSparse(b)
		s.Run(2) // touch the array through both passes
		var spent [2]time.Duration
		var made [2]int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass := s.Steps() & 1
			t0 := time.Now()
			s.Step()
			spent[pass] += time.Since(t0)
			made[pass]++
		}
		b.StopTimer()
		ns := perSite(b.Elapsed(), b.N, s.N())
		b.ReportMetric(ns, "ns/site")
		b.ReportMetric(1e3/ns, "MFLUPS")
		for pass, name := range []string{"even-ns/site", "odd-ns/site"} {
			if made[pass] > 0 {
				b.ReportMetric(perSite(spent[pass], made[pass], s.N()), name)
			}
		}
	})
}
