package decomp

import (
	"fmt"
	"math"

	"repro/internal/lbm"
)

// Grid decomposes the lattice with a uniform px x py x pz block grid over
// the bounding box — the naive baseline against which RCB's balanced
// cuts are judged. Empty blocks (all-solid regions of sparse anatomies)
// are legal: their tasks own zero sites, which is exactly the load
// imbalance the z(n) law of Eq. 11 has to absorb for codes without a
// balancing decomposer.
func Grid(t Topology, px, py, pz int, m lbm.AccessModel) (*Partition, error) {
	s := t.Topology()
	if px < 1 || py < 1 || pz < 1 {
		return nil, fmt.Errorf("decomp: grid %dx%dx%d must be positive", px, py, pz)
	}
	ntasks := px * py * pz
	if ntasks > s.N() {
		return nil, fmt.Errorf("decomp: grid of %d blocks exceeds %d fluid sites", ntasks, s.N())
	}
	nx, ny, nz := s.NX, s.NY, s.NZ
	c := newSiteCoords(s)
	p := &Partition{NTasks: ntasks, Owner: make([]int32, s.N())}
	for si := range p.Owner {
		bx := int(c.xs[si]) * px / nx
		by := int(c.ys[si]) * py / ny
		bz := int(c.zs[si]) * pz / nz
		p.Owner[si] = int32((bz*py+by)*px + bx)
	}
	newTally(s, m, ntasks, c).computeStats(p, nil)
	return p, nil
}

// GridCube decomposes with a near-cubic grid of approximately ntasks
// blocks: the factorization of ntasks into three factors closest to its
// cube root, preferring more cuts along longer axes.
func GridCube(t Topology, ntasks int, m lbm.AccessModel) (*Partition, error) {
	s := t.Topology()
	if ntasks < 1 {
		return nil, fmt.Errorf("decomp: ntasks %d must be positive", ntasks)
	}
	px, py, pz := factor3(ntasks)
	// Assign the largest factor to the longest domain axis.
	type axis struct {
		length int
		factor *int
	}
	dims := []axis{{s.NX, &px}, {s.NY, &py}, {s.NZ, &pz}}
	factors := []int{px, py, pz}
	sortDesc(factors)
	// Order axes by length descending and hand out factors in order.
	for i := 0; i < 3; i++ {
		longest := i
		for j := i + 1; j < 3; j++ {
			if dims[j].length > dims[longest].length {
				longest = j
			}
		}
		dims[i], dims[longest] = dims[longest], dims[i]
		*dims[i].factor = factors[i]
	}
	return Grid(s, px, py, pz, m)
}

// factor3 splits n into three factors as close to n^(1/3) as its divisors
// allow, greedily: the largest divisor of n not exceeding n^(1/3), then
// the same for the remainder's square root.
func factor3(n int) (a, b, c int) {
	a = largestDivisorAtMost(n, int(math.Cbrt(float64(n))+1e-9))
	rem := n / a
	b = largestDivisorAtMost(rem, int(math.Sqrt(float64(rem))+1e-9))
	c = rem / b
	return a, b, c
}

// largestDivisorAtMost returns the largest divisor of n that does not
// exceed limit (at least 1).
func largestDivisorAtMost(n, limit int) int {
	if limit < 1 {
		limit = 1
	}
	for d := limit; d >= 1; d-- {
		if n%d == 0 {
			return d
		}
	}
	return 1
}

// sortDesc sorts a tiny slice in place, descending.
func sortDesc(xs []int) {
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if xs[j] > xs[i] {
				xs[i], xs[j] = xs[j], xs[i]
			}
		}
	}
}
