//lint:hot
package lbm

import (
	"fmt"
	"math/bits"

	"repro/internal/geometry"
)

// Lattice is what a sparse lattice is, apart from any flow on it: the
// fluid sites of a domain in global scan order, their classification, the
// indirect-addressing link table and the box the global indices refer
// to. It is everything decomposition, calibration and byte accounting
// read, it is immutable once built, and every array but the site index
// is sized by fluid sites, so it is what a cache of prepared anatomies
// holds. Solver state — distributions, inlet profile — lives in Sparse,
// which embeds a Lattice.
type Lattice struct {
	NX, NY, NZ int // the bounding box global indices are linear in

	n     int                  // number of fluid sites
	gidx  []int32              // local site -> global linear index (ascending)
	types []geometry.PointType // local site -> classification

	// neigh[s*NQ+q] is the local index of the site at x + c_q, or solidNeighbor
	// when that site is solid (bounce-back), for every fluid site s.
	neigh []int32
	nvec  []uint8 // local site -> stored vectors: rest + fluid links

	// The global -> local index, for spatial queries: one bit per box
	// site, set where it is fluid, and the number of fluid sites before
	// each 64-site word. A site's local index is its word's count plus
	// the set bits below its own — 3 bits per box site where a dense
	// table took 32.
	fluid []uint64
	below []int32
}

const solidNeighbor = int32(-1)

// NewLattice indexes the fluid sites of dom in one pass over its voxels
// and wires their links, wrapping across the x faces when p.PeriodicX. A
// lattice is built for a parameter set because a driven flow (p.UMax > 0,
// not periodic) needs inlet sites to be driven from.
func NewLattice(dom *geometry.Domain, p Params) (*Lattice, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(dom.Types) != dom.Sites() {
		return nil, fmt.Errorf("lbm: domain %q has %d voxels for a %dx%dx%d box", dom.Name, len(dom.Types), dom.NX, dom.NY, dom.NZ)
	}
	l := &Lattice{NX: dom.NX, NY: dom.NY, NZ: dom.NZ}
	words := (len(dom.Types) + 63) / 64
	l.fluid = make([]uint64, words)
	l.below = make([]int32, words)
	inlets := 0
	for w, rest := 0, dom.Types; w < words; w++ {
		l.below[w] = int32(len(l.gidx))
		chunk := rest[:min(64, len(rest))]
		rest = rest[len(chunk):]
		// Vessels fill a few percent of their box: most words are all
		// solid and cost only this OR (Solid is the zero PointType).
		var any geometry.PointType
		for _, t := range chunk {
			any |= t
		}
		if any == geometry.Solid {
			continue
		}
		for b, t := range chunk {
			if !t.IsFluid() {
				continue
			}
			l.fluid[w] |= 1 << uint(b)
			l.gidx = append(l.gidx, int32(w*64+b))
			l.types = append(l.types, t)
			if t == geometry.Inlet {
				inlets++
			}
		}
	}
	l.n = len(l.gidx)
	if l.n == 0 {
		return nil, fmt.Errorf("lbm: domain %q has no fluid sites", dom.Name)
	}
	if inlets == 0 && p.UMax > 0 && !p.PeriodicX {
		return nil, fmt.Errorf("lbm: UMax set but domain %q has no inlet sites", dom.Name)
	}
	l.wire(p.PeriodicX)
	return l, nil
}

// wire fills the link table and the vector counts. Sites come in global
// scan order, so their coordinates advance row by row without a division;
// a site off the faces of the box finds its 18 neighbours at fixed global
// offsets, each one bit test and one popcount away.
func (l *Lattice) wire(periodicX bool) {
	l.neigh = make([]int32, l.n*NQ)
	l.nvec = make([]uint8, l.n)
	var offset [NQ]int
	for q := range offset {
		offset[q] = (Cz[q]*l.NY+Cy[q])*l.NX + Cx[q]
	}
	fluid, below := l.fluid, l.below
	row := l.neigh
	y, z, rowStart := 0, 0, 0
	for si, g32 := range l.gidx {
		g := int(g32)
		for g >= rowStart+l.NX {
			rowStart += l.NX
			if y++; y == l.NY {
				y, z = 0, z+1
			}
		}
		x := g - rowStart
		cell := (*[NQ]int32)(row[:NQ])
		row = row[NQ:]
		cell[0] = int32(si)
		vectors := uint8(1) // rest
		if x > 0 && x < l.NX-1 && y > 0 && y < l.NY-1 && z > 0 && z < l.NZ-1 {
			for q := 1; q < NQ; q++ {
				t := g + offset[q]
				w, bit := t>>6, uint(t&63)
				nb := solidNeighbor
				if word := fluid[w]; word>>bit&1 != 0 {
					nb = below[w] + int32(bits.OnesCount64(word&(1<<bit-1)))
					vectors++
				}
				cell[q] = nb
			}
		} else {
			for q := 1; q < NQ; q++ {
				nx := x + Cx[q]
				if periodicX {
					if nx < 0 {
						nx += l.NX
					} else if nx >= l.NX {
						nx -= l.NX
					}
				}
				nb := int32(l.SiteAt(nx, y+Cy[q], z+Cz[q]))
				if nb != solidNeighbor {
					vectors++
				}
				cell[q] = nb
			}
		}
		l.nvec[si] = vectors
	}
}

// Topology returns the lattice itself. Anything that embeds a *Lattice
// — a Sparse solver — has the method too, so functions that read only
// topology take either through a one-method interface.
func (l *Lattice) Topology() *Lattice { return l }

// N returns the number of fluid sites.
func (l *Lattice) N() int { return l.n }

// Type returns the classification of local site si.
func (l *Lattice) Type(si int) geometry.PointType { return l.types[si] }

// coords recovers (x, y, z) of local site si from its global index.
func (l *Lattice) coords(si int) (x, y, z int) {
	g := int(l.gidx[si])
	x = g % l.NX
	y = (g / l.NX) % l.NY
	z = g / (l.NX * l.NY)
	return x, y, z
}

// SiteCoords exposes the lattice coordinates of local site si, for
// validation against analytic profiles.
func (l *Lattice) SiteCoords(si int) (x, y, z int) { return l.coords(si) }

// SiteAt returns the local index of the fluid site at lattice coordinates
// (x, y, z), or -1 when the site is solid or outside the domain: how the
// link table finds a site's neighbors.
func (l *Lattice) SiteAt(x, y, z int) int {
	if x < 0 || x >= l.NX || y < 0 || y >= l.NY || z < 0 || z >= l.NZ {
		return -1
	}
	g := uint((z*l.NY+y)*l.NX + x)
	w, bit := g>>6, g&63
	fluid, below := l.fluid, l.below
	if w >= uint(len(fluid)) || w >= uint(len(below)) {
		return -1
	}
	word := fluid[w]
	if word>>bit&1 == 0 {
		return -1
	}
	return int(below[w]) + bits.OnesCount64(word&(1<<bit-1))
}
