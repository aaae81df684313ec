//lint:hot
package lbm

import (
	"math"

	"repro/internal/geometry"
)

// Sparse is the HARVEY-like engine: it stores only fluid sites, addresses
// neighbors through an index table (indirect addressing), and runs the AB
// propagation pattern (two arrays; collision fused with push streaming,
// see CollideStream) with an array-of-structures layout — the production
// configuration the paper benchmarks. It is a Lattice plus the state of a
// flow on it. The zero value is not usable; create instances with
// NewSparse.
type Sparse struct {
	*Lattice
	Dom    *geometry.Domain
	Params Params

	f, fnew []float64 // n*NQ distributions, AOS layout

	// Boundary machinery: the inlet sites, each with its prescribed
	// Poiseuille velocity, and the outlet sites, which are relaxed to
	// equilibrium at reference density. Ascending; none when periodic.
	bounds []BoundarySite

	steps int // timesteps completed
}

// NewSparse builds a solver for the domain: its lattice (NewLattice),
// the boundary sites with the inlet profile, and the fluid at rest with
// unit density.
func NewSparse(dom *geometry.Domain, p Params) (*Sparse, error) {
	l, err := NewLattice(dom, p)
	if err != nil {
		return nil, err
	}
	s := &Sparse{Lattice: l, Dom: dom, Params: p}
	s.buildBoundaries()

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

// buildBoundaries lists the inlet and outlet sites in ascending order,
// each inlet with its Poiseuille velocity u(r) = UMax * (1 - (r/R)^2)
// about the inlet centroid. A periodic run has none: its inlet and outlet
// sites are bulk fluid.
func (s *Sparse) buildBoundaries() {
	if s.Params.PeriodicX {
		return
	}
	var cy, cz float64
	inlets, outlets := 0, 0
	for si := 0; si < s.n; si++ {
		switch s.types[si] {
		case geometry.Inlet:
			_, y, z := s.coords(si)
			cy += float64(y)
			cz += float64(z)
			inlets++
		case geometry.Outlet:
			outlets++
		}
	}
	if inlets > 0 {
		cy /= float64(inlets)
		cz /= float64(inlets)
	}
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
	s.bounds = make([]BoundarySite, 0, inlets+outlets)
	for si := 0; si < s.n; si++ {
		switch s.types[si] {
		case geometry.Inlet:
			_, y, z := s.coords(si)
			dy, dz := float64(y)-cy, float64(z)-cz
			s.bounds = append(s.bounds, BoundarySite{Cell: int32(si), InletU: s.Params.UMax * (1 - (dy*dy+dz*dz)/r2)})
		case geometry.Outlet:
			s.bounds = append(s.bounds, BoundarySite{Cell: int32(si), Outlet: true})
		}
	}
}

// Steps returns the number of completed timesteps.
func (s *Sparse) Steps() int { return s.steps }

// SetSteps sets the timestep count, which is where a pulsatile inflow
// stands in its cycle: for handing back a state advanced elsewhere
// (par.Runner.WriteBack), together with SetCell.
func (s *Sparse) SetSteps(n int) { s.steps = n }

// Boundaries returns the inlet and outlet sites in ascending order (none
// in a periodic run, where they are bulk fluid). The slice aliases the
// solver's list; read only.
func (s *Sparse) Boundaries() []BoundarySite { return s.bounds }

// Step advances the simulation one timestep: one CollideStream pass over
// all sites (BGK or TRT collision with optional first-order body forcing,
// push streaming with halfway bounce-back on solid links), then the
// boundary-condition overrides at inlets and outlets.
func (s *Sparse) Step() {
	CollideStream(s.f, s.fnew, s.neigh, nil, s.Params)
	ApplyBoundaries(s.fnew, s.bounds, s.Params.Pulsatile.Scale(s.steps))
	s.f, s.fnew = s.fnew, s.f
	s.steps++
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

// MFLUPS returns millions of fluid lattice-point updates per second for a
// run of the given number of steps and wall-clock seconds (Eq. 7).
func MFLUPS(points, steps int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(points) * float64(steps) / seconds / 1e6
}
