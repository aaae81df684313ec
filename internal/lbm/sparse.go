//lint:hot
package lbm

import (
	"math"

	"repro/internal/geometry"
)

// Sparse is the HARVEY-like engine: it stores only fluid sites, addresses
// neighbors through an index table (indirect addressing), and runs the AA
// propagation pattern (one array updated in place, collision fused with
// streaming, see CollideStream) with an array-of-structures layout — the
// production configuration the paper benchmarks. It is a Lattice plus the
// link table its steps read and the state of a flow on it. The zero value
// is not usable; create instances with NewSparse.
type Sparse struct {
	*Lattice
	Dom    *geometry.Domain
	Params Params

	// The lattice's LinkRow of every fluid site, stored because every odd
	// step reads all of them: in runs where a stretch of bulk sites
	// shares its offsets, as explicit rows elsewhere (Links).
	links Links

	// n*NQ distributions, AOS: in the natural layout after an even
	// number of steps, in the swapped one after an odd number (see
	// CollideStream), so a readout goes through LoadCell and StoreCell.
	f []float64

	// Boundary machinery: the inlet sites, each with its prescribed
	// Poiseuille velocity, and the outlet sites, which are relaxed to
	// equilibrium at reference density. Ascending; none when periodic.
	bounds []BoundarySite

	steps int // timesteps completed
}

// NewSparse builds a solver for the domain: its lattice (NewLattice) and
// link table, the boundary sites with the inlet profile, and the fluid at
// rest with unit density.
func NewSparse(dom *geometry.Domain, p Params) (*Sparse, error) {
	l, err := NewLattice(dom, p)
	if err != nil {
		return nil, err
	}
	s := &Sparse{Lattice: l, Dom: dom, Params: p, links: l.linkTable()}
	s.buildBoundaries()

	// Rest-state initialization, over the ranges the link table was built
	// in: each range's goroutine is the first to touch its pages.
	s.f = make([]float64, s.n*NQ)
	ForRanges(s.n, SetupWorkers(s.n), func(_, lo, hi int) {
		var feq [NQ]float64
		Equilibrium(1, 0, 0, 0, &feq)
		for cells := s.f[lo*NQ : hi*NQ]; len(cells) >= NQ; cells = cells[NQ:] {
			*(*[NQ]float64)(cells[:NQ]) = feq
		}
	})
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
// (par.Runner.WriteBack), together with SetCell. The distributions Cell
// reads do not change.
func (s *Sparse) SetSteps(n int) {
	if (n^s.steps)&1 != 0 {
		s.swapLayout()
	}
	s.steps = n
}

// swapLayout moves the state between the natural and the swapped layout.
// The two differ by swaps of slot pairs: for each fluid link (i, q) to the
// cell nb at x + c_q, slot opp(q) of cell i trades with slot q of cell nb.
// Values on solid links and at rest stay put.
func (s *Sparse) swapLayout() {
	f := s.f
	rows := s.links.Cursor()
	var row [NQ]int32
	for i := 0; i < s.n; i++ {
		rows.Row(i, &row)
		for q := 1; q < NQ; q++ {
			a, b := i*NQ+Opp[q], int(row[q])*NQ+q
			if row[q] >= 0 && a < b { // each pair once, from its lower end
				f[a], f[b] = f[b], f[a]
			}
		}
	}
}

// Links returns the solver's link table: the lattice's LinkRow of every
// fluid site, in the form CollideStream steps. par.NewRunner builds its
// ranks' tables from it. Read only.
func (s *Sparse) Links() *Links { return &s.links }

// Boundaries returns the inlet and outlet sites in ascending order (none
// in a periodic run, where they are bulk fluid). The slice aliases the
// solver's list; read only.
func (s *Sparse) Boundaries() []BoundarySite { return s.bounds }

// Step advances the simulation one timestep: one CollideStream pass over
// all sites (BGK or TRT collision with optional first-order body forcing,
// streaming with halfway bounce-back on solid links), then the
// boundary-condition overrides at inlets and outlets.
func (s *Sparse) Step() {
	CollideStream(s.f, &s.links, nil, s.Params, s.steps)
	ApplyBoundaries(s.f, &s.links, nil, s.bounds, s.Params, s.steps)
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
	cell := s.Cell(si)
	return Moments(&cell)
}

// TotalMass returns the sum of density over all fluid sites, in (site,
// direction) order. In periodic force-driven runs mass is conserved to
// round-off; with open boundaries it approaches a steady value. After an
// even number of steps the state is in that order already (the natural
// layout), and the sum runs straight down the array.
func (s *Sparse) TotalMass() float64 {
	var m float64
	if s.steps&1 == 0 {
		for _, v := range s.f {
			m += v
		}
		return m
	}
	for si := 0; si < s.n; si++ {
		for _, v := range s.Cell(si) {
			m += v
		}
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
func (s *Sparse) Cell(si int) [NQ]float64 { return LoadCell(s.f, &s.links, nil, si, s.steps) }

// SetCell overwrites the distribution at local site si.
func (s *Sparse) SetCell(si int, c [NQ]float64) { StoreCell(s.f, &s.links, nil, si, s.steps, &c) }

// MFLUPS returns millions of fluid lattice-point updates per second for a
// run of the given number of steps and wall-clock seconds (Eq. 7).
func MFLUPS(points, steps int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(points) * float64(steps) / seconds / 1e6
}
