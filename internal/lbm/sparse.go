//lint:hot
package lbm

import "repro/internal/geometry"

// Sparse is the HARVEY-like engine: it stores only fluid sites, addresses
// neighbors through an index table (indirect addressing), and runs the AA
// propagation pattern (one array updated in place, collision fused with
// streaming, see Block.CollideStream) with an array-of-structures layout —
// the production configuration the paper benchmarks. It is a Lattice plus
// the Block of all its sites. The zero value is not usable; create
// instances with NewSparse.
type Sparse struct {
	*Lattice
	Block
}

// NewSparse builds a solver for the domain: its lattice (NewLattice), the
// block of every site with the lattice's LinkRow as its link table and
// the lattice's boundary sites, and the fluid at rest with unit density.
func NewSparse(dom *geometry.Domain, p Params) (*Sparse, error) {
	l, err := NewLattice(dom, p)
	if err != nil {
		return nil, err
	}
	// The table before f: the other order raised lbm_solve's peak RSS
	// by 1.5 MB, where par's ranks gain by allocating f first.
	links := l.linkTable()
	return &Sparse{Lattice: l, Block: NewBlock(make([]float64, l.n*NQ), links, 0, l.BoundarySites(), nil, nil)}, nil
}

// Step advances the simulation one timestep: the block's two passes under
// the lattice's parameters, BGK or TRT collision with optional
// first-order body forcing and streaming with halfway bounce-back on solid
// links, then the boundary-condition overrides at inlets and outlets.
func (s *Sparse) Step() {
	s.CollideStream(s.params)
	s.ApplyBoundaries(s.params)
}

// Run advances the given number of timesteps.
func (s *Sparse) Run(steps int) {
	for i := 0; i < steps; i++ {
		s.Step()
	}
}

// MFLUPS returns millions of fluid lattice-point updates per second for a
// run of the given number of steps and wall-clock seconds (Eq. 7).
func MFLUPS(points, steps int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(points) * float64(steps) / seconds / 1e6
}
