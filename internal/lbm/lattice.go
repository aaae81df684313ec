//lint:hot
package lbm

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geometry"
)

// Lattice is what a sparse lattice is, apart from any flow on it: the
// fluid sites of a domain in global scan order, their classification and
// stored-vector counts, and the box the global indices refer to, with a
// global -> local index over it. It is everything decomposition,
// calibration and byte accounting read, and it is immutable once built.
// It stores no link table: LinkRow derives any site's row from the index,
// and the solver engines, which read every row every other step, keep
// their own. So a lattice costs 6 bytes per fluid site plus 1.5 bits per
// box voxel, and that is what a cache of prepared anatomies holds.
// It keeps the parameter set it was built for, so that the engines built
// on it step the flow its links were derived for. Solver state — link
// table, distributions, boundary sites — lives in a Block.
type Lattice struct {
	NX, NY, NZ int // the bounding box global indices are linear in

	n     int                  // number of fluid sites
	gidx  []int32              // local site -> global linear index (ascending)
	types []geometry.PointType // local site -> classification
	nvec  []uint8              // local site -> stored vectors: rest + fluid links

	// The global -> local index, for spatial queries: one bit per box
	// site, set where it is fluid, and the number of fluid sites before
	// each 64-site word. A site's local index is its word's count plus
	// the set bits below its own — 1.5 bits per box site where a dense
	// table took 32.
	fluid []uint64
	below []int32

	params Params  // what the lattice was built for; PeriodicX wraps its links
	offset [NQ]int // global-index step along each c_q, for sites off the faces
}

const solidNeighbor = int32(-1)

// NewLattice indexes the fluid sites of dom in one pass over its voxels
// and counts their links, wrapping across the x faces when p.PeriodicX. A
// lattice is built for a parameter set because links depend on the wrap
// and a driven flow (p.UMax > 0, not periodic) needs inlet sites to be
// driven from.
func NewLattice(dom *geometry.Domain, p Params) (*Lattice, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(dom.Types) != dom.Sites() {
		return nil, fmt.Errorf("lbm: domain %q has %d voxels for a %dx%dx%d box", dom.Name, len(dom.Types), dom.NX, dom.NY, dom.NZ)
	}
	l := &Lattice{NX: dom.NX, NY: dom.NY, NZ: dom.NZ, params: p}
	for q := range l.offset {
		l.offset[q] = (Cz[q]*l.NY+Cy[q])*l.NX + Cx[q]
	}
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
	l.nvec = make([]uint8, l.n)
	ForRanges(l.n, SetupWorkers(l.n), func(_, lo, hi int) { l.countVectors(lo, hi) })
	return l, nil
}

// countVectors records the stored-vector count of sites [lo, hi): the
// rest vector and one per fluid link.
func (l *Lattice) countVectors(lo, hi int) {
	nvec := l.nvec[lo:hi]
	at := l.Cursor()
	for i, g := range l.gidx[lo:hi] {
		x, y, z := at.coords(int(g))
		vectors := uint8(1) // rest
		if l.offFaces(x, y, z) {
			for q := 1; q < NQ; q++ {
				if l.isFluid(int(g) + l.offset[q]) {
					vectors++
				}
			}
		} else {
			for q := 1; q < NQ; q++ {
				if g, in := l.boxIndex(l.wrapX(x+Cx[q]), y+Cy[q], z+Cz[q]); in && l.isFluid(g) {
					vectors++
				}
			}
		}
		if i < len(nvec) {
			nvec[i] = vectors
		}
	}
}

// LinkRow fills row with the links of local site si, whose coordinates
// (x, y, z) the caller passes — SiteCoords(si), or a walk that tracks
// them: row[0] is si, and row[q] the local index of the site at x + c_q,
// or -1 when that site is solid (bounce-back), wrapping across the x
// faces in a periodic lattice. A site off the faces of the box finds its
// 18 neighbours at fixed global offsets, each one bit test and one
// popcount away. It is the one derivation of links: decomposition calls
// it per site as it scans, and the engines once per site for their
// tables, through a LatticeCursor.
func (l *Lattice) LinkRow(row *[NQ]int32, si, x, y, z int) {
	row[0] = int32(si)
	if l.offFaces(x, y, z) {
		g := (z*l.NY+y)*l.NX + x
		for q := 1; q < NQ; q++ {
			row[q] = l.local(g + l.offset[q])
		}
		return
	}
	for q := 1; q < NQ; q++ {
		row[q] = int32(l.SiteAt(l.wrapX(x+Cx[q]), y+Cy[q], z+Cz[q]))
	}
}

// LatticeCursor derives the link rows of local sites visited in ascending
// order, LinkRow's, with the shape of a RowCursor over a lattice that
// stores none. It recovers each site's coordinates without a division
// while the walk stays on a box row.
type LatticeCursor struct {
	l              *Lattice
	y, z, rowStart int
}

// Cursor returns a LatticeCursor for a walk from any site.
func (l *Lattice) Cursor() LatticeCursor { return LatticeCursor{l: l} }

// Row fills row with the link row of local site si, which is no lower
// than the last site the cursor visited.
func (c *LatticeCursor) Row(si int, row *[NQ]int32) {
	x, y, z := c.coords(int(c.l.gidx[si]))
	c.l.LinkRow(row, si, x, y, z)
}

// coords returns the coordinates of box site g, no lower than the last
// one the cursor visited.
func (c *LatticeCursor) coords(g int) (x, y, z int) {
	if nx := c.l.NX; g >= c.rowStart+nx {
		row := g / nx
		c.rowStart, c.y, c.z = row*nx, row%c.l.NY, row/c.l.NY
	}
	return g - c.rowStart, c.y, c.z
}

// offFaces reports whether (x, y, z) lies off every face of the box, so
// that all 18 of its neighbours are inside it at l.offset.
func (l *Lattice) offFaces(x, y, z int) bool {
	return x > 0 && x < l.NX-1 && y > 0 && y < l.NY-1 && z > 0 && z < l.NZ-1
}

// wrapX folds an x one site off the box back onto it in a periodic
// lattice.
func (l *Lattice) wrapX(x int) int {
	if l.params.PeriodicX {
		if x < 0 {
			return x + l.NX
		} else if x >= l.NX {
			return x - l.NX
		}
	}
	return x
}

// isFluid reports whether box site g is fluid.
func (l *Lattice) isFluid(g int) bool {
	w, fluid := uint(g)>>6, l.fluid
	return w < uint(len(fluid)) && fluid[w]>>(uint(g)&63)&1 != 0
}

// local returns the local index of box site g, or solidNeighbor when it
// is solid. One unsigned compare per array is range test and bounds
// proof at once.
func (l *Lattice) local(g int) int32 {
	w, bit := uint(g)>>6, uint(g)&63
	fluid, below := l.fluid, l.below
	if w >= uint(len(fluid)) || w >= uint(len(below)) {
		return solidNeighbor
	}
	word := fluid[w]
	if word>>bit&1 == 0 {
		return solidNeighbor
	}
	return below[w] + int32(bits.OnesCount64(word&(1<<bit-1)))
}

// Topology returns the lattice itself. Anything that embeds a *Lattice
// — a Sparse solver — has the method too, so functions that read only
// topology take either through a one-method interface.
func (l *Lattice) Topology() *Lattice { return l }

// Params returns the parameter set the lattice was built for.
func (l *Lattice) Params() Params { return l.params }

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
// (x, y, z), or -1 when the site is solid or outside the domain: how
// LinkRow finds the neighbours of a site on a face of the box.
func (l *Lattice) SiteAt(x, y, z int) int {
	g, in := l.boxIndex(x, y, z)
	if !in {
		return -1
	}
	return int(l.local(g))
}

// boxIndex returns the global index of (x, y, z), and whether it is
// inside the box at all.
func (l *Lattice) boxIndex(x, y, z int) (g int, in bool) {
	if x < 0 || x >= l.NX || y < 0 || y >= l.NY || z < 0 || z >= l.NZ {
		return 0, false
	}
	return (z*l.NY+y)*l.NX + x, true
}

// BoundarySites lists the inlet and outlet sites in ascending order, each
// inlet with its Poiseuille velocity u(r) = UMax * (1 - (r/R)^2) about the
// inlet centroid: the boundary list of an engine over the whole lattice,
// which a block over some of its sites takes its own from. A periodic
// lattice has none: its inlet and outlet sites are bulk fluid.
func (l *Lattice) BoundarySites() []BoundarySite {
	if l.params.PeriodicX {
		return nil
	}
	var cy, cz float64
	inlets, outlets := 0, 0
	for si := 0; si < l.n; si++ {
		switch l.types[si] {
		case geometry.Inlet:
			_, y, z := l.coords(si)
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
	for si := 0; si < l.n; si++ {
		if l.types[si] == geometry.Inlet {
			_, y, z := l.coords(si)
			dy, dz := float64(y)-cy, float64(z)-cz
			rMax = math.Max(rMax, math.Sqrt(dy*dy+dz*dz))
		}
	}
	if rMax == 0 {
		rMax = 1 // single-site inlet: flat profile
	}
	// R is half a site beyond the outermost fluid site (the true wall).
	r2 := (rMax + 0.5) * (rMax + 0.5)
	sites := make([]BoundarySite, 0, inlets+outlets)
	for si := 0; si < l.n; si++ {
		switch l.types[si] {
		case geometry.Inlet:
			_, y, z := l.coords(si)
			dy, dz := float64(y)-cy, float64(z)-cz
			sites = append(sites, BoundarySite{Cell: int32(si), InletU: l.params.UMax * (1 - (dy*dy+dz*dz)/r2)})
		case geometry.Outlet:
			sites = append(sites, BoundarySite{Cell: int32(si), Outlet: true})
		}
	}
	return sites
}
