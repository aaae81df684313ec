//lint:hot
package lbm

import (
	"math"

	"repro/internal/geometry"
)

// Sparse is the HARVEY-like engine: it stores only fluid sites, addresses
// neighbors through an index table (indirect addressing), and runs the AB
// propagation pattern with an array-of-structures layout — the production
// configuration the paper benchmarks. It is a Lattice plus the state of a
// flow on it. The zero value is not usable; create instances with
// NewSparse.
type Sparse struct {
	*Lattice
	Dom    *geometry.Domain
	Params Params

	f, fnew []float64 // n*NQ distributions, AOS layout

	// Inlet machinery: per-inlet-site prescribed Poiseuille velocity.
	inletU []float64 // len n, nonzero only at inlet sites
	// Outlet sites are relaxed to equilibrium at reference density.

	steps int // timesteps completed
}

// NewSparse builds a solver for the domain: its lattice (NewLattice),
// the inlet profile, and the fluid at rest with unit density.
func NewSparse(dom *geometry.Domain, p Params) (*Sparse, error) {
	l, err := NewLattice(dom, p)
	if err != nil {
		return nil, err
	}
	s := &Sparse{Lattice: l, Dom: dom, Params: p}
	s.buildInletProfile()

	// Rest-state initialization.
	s.f = make([]float64, s.n*NQ)
	s.fnew = make([]float64, s.n*NQ)
	var feq [NQ]float64
	Equilibrium(1, 0, 0, 0, &feq)
	for si := 0; si < s.n; si++ {
		copy(s.f[si*NQ:si*NQ+NQ], feq[:])
	}
	return s, nil
}

// buildInletProfile computes the Poiseuille velocity for every inlet site:
// u(r) = UMax * (1 - (r/R)^2) about the inlet centroid. A lattice without
// inlet sites (periodic runs; NewLattice rejects the driven case) keeps
// the zero profile.
func (s *Sparse) buildInletProfile() {
	s.inletU = make([]float64, s.n)
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
		return
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
	//lint:ignore floateq exact zero means the loop found no off-axis site
	if rMax == 0 {
		rMax = 1 // single-site inlet: flat profile
	}
	// R is half a site beyond the outermost fluid site (the true wall).
	r2 := (rMax + 0.5) * (rMax + 0.5)
	for si := 0; si < s.n; si++ {
		if s.types[si] == geometry.Inlet {
			_, y, z := s.coords(si)
			dy, dz := float64(y)-cy, float64(z)-cz
			s.inletU[si] = s.Params.UMax * (1 - (dy*dy+dz*dz)/r2)
		}
	}
}

// Steps returns the number of completed timesteps.
func (s *Sparse) Steps() int { return s.steps }

// Step advances the simulation one timestep: BGK collision with optional
// first-order body forcing, then pull streaming with halfway bounce-back
// on solid links, then boundary-condition overrides at inlets and outlets.
//
// The loops are shaped so the compiler can prove every index in bounds
// (gated by cmd/lint -perfbudget): fixed-stride NQ-wide windows advance
// over the site arrays (w = w[NQ:] — slice bounds are checked against
// cap, and prove only eliminates the check when the window length is
// compared directly), and each neighbor gather is guarded by one
// unsigned compare that doubles as the solid test, since solidNeighbor
// converts to a huge uint.
func (s *Sparse) Step() {
	fx, fy, fz := s.Params.Force[0], s.Params.Force[1], s.Params.Force[2]

	// Collision, in place on s.f, one window per site.
	f := s.f
	w := f
	for len(w) >= NQ {
		cell := (*[NQ]float64)(w[:NQ])
		w = w[NQ:]
		CollideCell(cell, s.Params, fx, fy, fz)
	}

	// Pull streaming into s.fnew: f_q(x, t+1) = f*_q(x - c_q, t); when the
	// upstream site is solid, halfway bounce-back reads the opposite
	// distribution of the local cell. Direction pairs are unrolled so the
	// opposite index is a constant, not an Opp load the prover can't bound.
	fnew := s.fnew
	fw, nw, ww := f, fnew, s.neigh
	for len(fw) >= NQ && len(nw) >= NQ && len(ww) >= NQ {
		lw := (*[NQ]float64)(fw[:NQ])
		out := (*[NQ]float64)(nw[:NQ])
		nb := (*[NQ]int32)(ww[:NQ])
		fw, nw, ww = fw[NQ:], nw[NQ:], ww[NQ:]
		out[0] = lw[0]
		sparsePull(out, lw, f, nb, 1, 2)
		sparsePull(out, lw, f, nb, 2, 1)
		sparsePull(out, lw, f, nb, 3, 4)
		sparsePull(out, lw, f, nb, 4, 3)
		sparsePull(out, lw, f, nb, 5, 6)
		sparsePull(out, lw, f, nb, 6, 5)
		sparsePull(out, lw, f, nb, 7, 8)
		sparsePull(out, lw, f, nb, 8, 7)
		sparsePull(out, lw, f, nb, 9, 10)
		sparsePull(out, lw, f, nb, 10, 9)
		sparsePull(out, lw, f, nb, 11, 12)
		sparsePull(out, lw, f, nb, 12, 11)
		sparsePull(out, lw, f, nb, 13, 14)
		sparsePull(out, lw, f, nb, 14, 13)
		sparsePull(out, lw, f, nb, 15, 16)
		sparsePull(out, lw, f, nb, 16, 15)
		sparsePull(out, lw, f, nb, 17, 18)
		sparsePull(out, lw, f, nb, 18, 17)
	}

	// Boundary conditions by equilibrium override.
	if !s.Params.PeriodicX {
		var bc [NQ]float64
		scale := s.Params.Pulsatile.Scale(s.steps)
		inletU := s.inletU
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

	s.f, s.fnew = s.fnew, s.f
	s.steps++
}

// sparsePull streams direction q into out: the upstream site along -c_q
// is the neighbor recorded at the opposite slot oq; a solid upstream
// bounces the local opposite distribution back instead. The unsigned
// compare is both the solid test and the bounds proof, so the gather
// carries no bounds check.
func sparsePull(out, lw *[NQ]float64, f []float64, nb *[NQ]int32, q, oq int) {
	if off := int(nb[oq])*NQ + q; uint(off) < uint(len(f)) {
		out[q] = f[off]
	} else {
		out[q] = lw[oq]
	}
}

// Run advances the given number of timesteps.
func (s *Sparse) Run(steps int) {
	for i := 0; i < steps; i++ {
		s.Step()
	}
}

// Macro returns density and velocity at local site si.
func (s *Sparse) Macro(si int) (rho, ux, uy, uz float64) {
	var cell [NQ]float64
	copy(cell[:], s.f[si*NQ:si*NQ+NQ])
	return Moments(&cell)
}

// TotalMass returns the sum of density over all fluid sites. In periodic
// force-driven runs mass is conserved to round-off; with open boundaries
// it approaches a steady value.
func (s *Sparse) TotalMass() float64 {
	var m float64
	for i := range s.f {
		m += s.f[i]
	}
	return m
}

// MaxSpeed returns the largest velocity magnitude over fluid sites, a
// cheap stability probe (blow-ups show up as speeds near or above 1).
func (s *Sparse) MaxSpeed() float64 {
	var vmax float64
	for si := 0; si < s.n; si++ {
		_, ux, uy, uz := s.Macro(si)
		v := math.Sqrt(ux*ux + uy*uy + uz*uz)
		vmax = math.Max(vmax, v)
	}
	return vmax
}

// Cell returns a copy of the distribution at local site si.
func (s *Sparse) Cell(si int) (c [NQ]float64) {
	copy(c[:], s.f[si*NQ:si*NQ+NQ])
	return c
}

// SetCell overwrites the distribution at local site si.
func (s *Sparse) SetCell(si int, c [NQ]float64) {
	copy(s.f[si*NQ:si*NQ+NQ], c[:])
}

// InletVelocity returns the prescribed Poiseuille axial velocity at local
// site si (zero for non-inlet sites).
func (s *Sparse) InletVelocity(si int) float64 { return s.inletU[si] }

// MFLUPS returns millions of fluid lattice-point updates per second for a
// run of the given number of steps and wall-clock seconds (Eq. 7).
func MFLUPS(points, steps int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(points) * float64(steps) / seconds / 1e6
}
