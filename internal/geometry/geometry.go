// Package geometry builds the voxelized simulation domains used in the
// paper's experiments: an idealized cylindrical vessel, an aorta, and a
// cerebral vasculature (Figure 2). The anatomical geometries in the paper
// come from the Open Source Medical Software repository; this reproduction
// synthesizes procedural equivalents that match the three properties the
// experiments exercise — bulk-to-wall fluid point ratio, decomposability /
// load balance, and communication surface area — as documented in
// DESIGN.md.
//
// A Domain classifies every lattice site as solid, bulk fluid, wall fluid
// (fluid adjacent to solid, which HARVEY updates with fewer memory
// accesses), inlet, or outlet.
package geometry

import (
	"fmt"
	"math"
)

// PointType classifies a lattice site.
type PointType uint8

// Lattice site classifications.
const (
	Solid  PointType = iota // outside the vessel; not simulated
	Bulk                    // interior fluid, full D3Q19 update
	Wall                    // fluid adjacent to solid; bounce-back, fewer accesses
	Inlet                   // velocity (Poiseuille) boundary
	Outlet                  // zero-pressure boundary
)

// String returns a short name for the point type.
func (p PointType) String() string {
	switch p {
	case Solid:
		return "solid"
	case Bulk:
		return "bulk"
	case Wall:
		return "wall"
	case Inlet:
		return "inlet"
	case Outlet:
		return "outlet"
	default:
		return fmt.Sprintf("PointType(%d)", uint8(p))
	}
}

// IsFluid reports whether the site participates in the LBM update.
func (p PointType) IsFluid() bool { return p != Solid }

// Domain is a voxelized simulation geometry.
type Domain struct {
	Name       string
	NX, NY, NZ int
	Types      []PointType // len NX*NY*NZ, indexed via Index
}

// Index returns the linear index of site (x, y, z). Sites are stored
// x-fastest so that x-slabs are contiguous, matching the slab
// decomposition used for parallel runs.
func (d *Domain) Index(x, y, z int) int { return (z*d.NY+y)*d.NX + x }

// At returns the type of site (x, y, z). Out-of-range coordinates are
// solid, so neighbor scans need no bounds checks.
func (d *Domain) At(x, y, z int) PointType {
	if x < 0 || x >= d.NX || y < 0 || y >= d.NY || z < 0 || z >= d.NZ {
		return Solid
	}
	return d.Types[d.Index(x, y, z)]
}

// Sites returns the total number of lattice sites, fluid and solid.
func (d *Domain) Sites() int { return d.NX * d.NY * d.NZ }

// Stats summarizes a domain's composition — the levers through which
// geometry affects performance in the paper's analysis.
type Stats struct {
	Bulk, Wall, Inlet, Outlet, Solid int
	Fluid                            int     // Bulk + Wall + Inlet + Outlet
	BulkWallRatio                    float64 // bulk : wall fluid points
	FluidFraction                    float64 // fluid sites / all sites (packing efficiency)
}

// Stats scans the domain and tallies its composition.
func (d *Domain) Stats() Stats {
	var s Stats
	for _, t := range d.Types {
		switch t {
		case Bulk:
			s.Bulk++
		case Wall:
			s.Wall++
		case Inlet:
			s.Inlet++
		case Outlet:
			s.Outlet++
		default:
			s.Solid++
		}
	}
	s.Fluid = s.Bulk + s.Wall + s.Inlet + s.Outlet
	if s.Wall > 0 {
		s.BulkWallRatio = float64(s.Bulk) / float64(s.Wall)
	}
	if n := d.Sites(); n > 0 {
		s.FluidFraction = float64(s.Fluid) / float64(n)
	}
	return s
}

// Vec3 is a point in continuous lattice coordinates.
type Vec3 struct{ X, Y, Z float64 }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Capsule is a line segment with radius: the voxelizer's primitive. Any
// tubular vessel is a chain of capsules along its centerline.
type Capsule struct {
	A, B Vec3
	R    float64
}

// distance returns the distance from p to the capsule's axis segment.
func (c Capsule) distance(p Vec3) float64 {
	ab := c.B.Sub(c.A)
	ap := p.Sub(c.A)
	den := ab.Dot(ab)
	t := 0.0
	if den > 0 {
		t = ap.Dot(ab) / den
	}
	t = max(0, min(1, t))
	closest := Vec3{c.A.X + t*ab.X, c.A.Y + t*ab.Y, c.A.Z + t*ab.Z}
	return p.Sub(closest).Norm()
}

// contains reports whether p lies inside the capsule.
func (c Capsule) contains(p Vec3) bool { return c.distance(p) <= c.R }

// Port marks an inlet or outlet: fluid sites on the given x-plane within
// Radius of Center become boundary sites of the given type.
type Port struct {
	XPlane int
	Center Vec3 // only Y and Z are used
	Radius float64
	Type   PointType // Inlet or Outlet
}

// unclassified is a fluid site between Build's first two passes: known to
// be fluid, not yet Bulk or Wall. Each is decided once, however many
// capsules' rows it lies in, and no Domain is returned holding one.
const unclassified PointType = 0xFF

// Build voxelizes a set of capsules into a domain of the given size, then
// classifies fluid sites: sites adjacent (26-neighborhood, covering all
// D3Q19 directions) to solid become Wall; port planes become Inlet/Outlet.
//
// Its cost follows the fluid, not the box: of each capsule's bounding box
// only the rows the capsule can reach are visited, and of those only the
// x-interval it can reach (see rows and reach.span) — to voxelize, to
// classify, and where a port's plane cuts them — and nothing but Types is
// allocated.
func Build(name string, nx, ny, nz int, caps []Capsule, ports []Port) (*Domain, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("geometry: non-positive dimensions %dx%dx%d", nx, ny, nz)
	}
	if len(caps) == 0 {
		return nil, fmt.Errorf("geometry: no capsules supplied for %q", name)
	}
	for i, c := range caps {
		for _, v := range [...]float64{c.A.X, c.A.Y, c.A.Z, c.B.X, c.B.Y, c.B.Z, c.R} {
			if math.IsNaN(v) || math.IsInf(v, 0) || c.R <= 0 {
				return nil, fmt.Errorf("geometry: capsule %d of %q needs finite ends and a positive finite radius, has %+v", i, name, c)
			}
		}
	}
	for _, p := range ports {
		if p.Type != Inlet && p.Type != Outlet {
			return nil, fmt.Errorf("geometry: port type %v is not Inlet or Outlet", p.Type)
		}
		if p.XPlane < 0 || p.XPlane >= nx {
			return nil, fmt.Errorf("geometry: port plane x=%d outside domain [0,%d)", p.XPlane, nx)
		}
	}
	d := &Domain{Name: name, NX: nx, NY: ny, NZ: nz, Types: make([]PointType, nx*ny*nz)}

	// Pass 1: fluid mask. A voxel another capsule already claimed is not
	// tested again; every other candidate is decided by Capsule.contains.
	d.rows(caps, 0, nx-1, func(c *Capsule, y, z, xa, xb int) {
		row := d.Types[d.Index(0, y, z):][:nx]
		for x := xa; x <= xb; x++ {
			if row[x] == Solid && c.contains(Vec3{float64(x), float64(y), float64(z)}) {
				row[x] = unclassified
			}
		}
	})

	// Pass 2: wall classification, in place: what a site becomes depends
	// only on which of its neighbors are solid, and none becomes solid.
	d.rows(caps, 0, nx-1, func(_ *Capsule, y, z, xa, xb int) { d.classify(y, z, xa, xb) })

	// Pass 3: ports override wall/bulk classification on their planes.
	for _, p := range ports {
		marked := 0
		d.rows(caps, p.XPlane, p.XPlane, func(_ *Capsule, y, z, _, _ int) {
			dy, dz := float64(y)-p.Center.Y, float64(z)-p.Center.Z
			if i := d.Index(p.XPlane, y, z); d.Types[i] != Solid && math.Sqrt(dy*dy+dz*dz) <= p.Radius {
				d.Types[i] = p.Type
				marked++
			}
		})
		if marked == 0 {
			return nil, fmt.Errorf("geometry: port at x=%d marked no sites", p.XPlane)
		}
	}
	return d, nil
}

// rows calls visit with every row (y, z) of the box a capsule of caps can
// reach between the planes x = lo and x = hi, and the sites xa..xb of it
// the capsule may contain there, capsule by capsule. Every fluid site
// lies in the rows of the capsule that made it fluid, so the passes of
// Build walk these and not the box.
//
//lint:hot
func (d *Domain) rows(caps []Capsule, lo, hi int, visit func(c *Capsule, y, z, xa, xb int)) {
	for i := range caps {
		r := newReach(caps[i], d.NX, d.NY, d.NZ)
		if r.x0, r.x1 = max(r.x0, lo), min(r.x1, hi); r.x0 > r.x1 {
			continue
		}
		for z := r.z0; z <= r.z1; z++ {
			for y := r.y0; y <= r.y1; y++ {
				if xa, xb := r.span(y, z); xa <= xb {
					visit(&caps[i], y, z, xa, xb)
				}
			}
		}
	}
}

// classify decides the unclassified sites xa..xb of row (y, z): Wall with
// a solid 26-neighbor, Bulk without. Everything outside the box is solid,
// so a site on a box face is a wall; an interior site reads its nine
// neighboring rows at the same offsets.
//
//lint:hot
func (d *Domain) classify(y, z, xa, xb int) {
	nx, base := d.NX, d.Index(0, y, z)
	row := d.Types[base:][:nx]
	if y == 0 || y == d.NY-1 || z == 0 || z == d.NZ-1 {
		face := row[xa : xb+1]
		for x := range face {
			if face[x] == unclassified {
				face[x] = Wall
			}
		}
		return
	}
	for _, x := range [2]int{0, nx - 1} {
		if xa <= x && x <= xb && row[x] == unclassified {
			row[x] = Wall
		}
	}
	if xa, xb = max(xa, 1), min(xb, nx-2); xa > xb {
		return
	}
	// Windows over [xa-1, xb+1] of the nine rows, all one length: site x
	// is at k-1 = x-xa+1 in each, its x-neighbors at k-2 and k. (Counting
	// by the right-hand neighbor is what lets the compiler drop every
	// bounds check in the loop.)
	lo, plane := base+xa-1, nx*d.NY
	mid := d.Types[lo:][:xb-xa+3]
	r0, r1, r2 := d.Types[lo-plane-nx:][:len(mid)], d.Types[lo-plane:][:len(mid)], d.Types[lo-plane+nx:][:len(mid)]
	r3, r5 := d.Types[lo-nx:][:len(mid)], d.Types[lo+nx:][:len(mid)]
	r6, r7, r8 := d.Types[lo+plane-nx:][:len(mid)], d.Types[lo+plane:][:len(mid)], d.Types[lo+plane+nx:][:len(mid)]
	for k := 2; k < len(mid); k++ {
		if mid[k-1] != unclassified {
			continue
		}
		mid[k-1] = Bulk
		if solidBy(mid, k) || solidBy(r0, k) || solidBy(r1, k) || solidBy(r2, k) || solidBy(r3, k) ||
			solidBy(r5, k) || solidBy(r6, k) || solidBy(r7, k) || solidBy(r8, k) {
			mid[k-1] = Wall
		}
	}
}

// solidBy reports whether row has a solid site among the three up to k.
func solidBy(row []PointType, k int) bool {
	return row[k-2] == Solid || row[k-1] == Solid || row[k] == Solid
}

// reach is the part of the box one capsule can touch: its bounding box in
// sites and what span needs to narrow a row of it.
type reach struct {
	x0, x1, y0, y1, z0, z1 int

	a           Vec3    // the axis' start
	ux, uy, uz  float64 // the axis, B - A
	proj, proj2 float64 // length of the axis' projection on the y-z plane, and its square
	slack       float64 // what the bounds give away to rounding, in sites
	rr          float64 // (R + 2 slack)²
}

func newReach(c Capsule, nx, ny, nz int) reach {
	r := reach{a: c.A, ux: c.B.X - c.A.X, uy: c.B.Y - c.A.Y, uz: c.B.Z - c.A.Z}
	r.x0, r.x1 = boundRange(min(c.A.X, c.B.X)-c.R, max(c.A.X, c.B.X)+c.R, nx)
	r.y0, r.y1 = boundRange(min(c.A.Y, c.B.Y)-c.R, max(c.A.Y, c.B.Y)+c.R, ny)
	r.z0, r.z1 = boundRange(min(c.A.Z, c.B.Z)-c.R, max(c.A.Z, c.B.Z)+c.R, nz)
	r.proj2 = r.uy*r.uy + r.uz*r.uz
	r.proj = math.Sqrt(r.proj2)
	// Rounding in Capsule.distance and in span moves a distance by a few
	// ulps of the coordinates; a millionth of them is far outside that and
	// costs no candidates. rr has it twice: span takes a projection
	// shorter than the slack for a point.
	r.slack = 1e-6 * (1 + c.R + max(math.Abs(c.A.X), math.Abs(c.A.Y), math.Abs(c.A.Z), math.Abs(c.B.X), math.Abs(c.B.Y), math.Abs(c.B.Z)))
	r.rr = (c.R + 2*r.slack) * (c.R + 2*r.slack)
	return r
}

// span returns the sites of row (y, z) the capsule can contain, an empty
// range (xa > xb) when it cannot reach the row. It is a conservative
// bound, never the decision: projecting onto the y-z plane only shortens
// distances, so a row farther than R from the axis' projection holds no
// site of the capsule, and on a nearer row a site within R of the axis is
// within sqrt(R² - d²) in x of the stretch of axis whose projection is
// within R of the row, d being the row's distance from the projection.
// Every comparison is written so that a NaN from overflowing
// intermediates keeps the whole row of the box.
//
//lint:hot
func (r *reach) span(y, z int) (int, int) {
	wy, wz := float64(y)-r.a.Y, float64(z)-r.a.Z
	t0, t1, foot := 0.0, 1.0, 0.0
	if r.proj > r.slack {
		// The axis parameters whose projection is within R of the row:
		// the chord the circle around it cuts from the projected line.
		// (Dividing by a shorter projection would lose them to rounding.)
		tc := (wy*r.uy + wz*r.uz) / r.proj2
		py, pz := wy-tc*r.uy, wz-tc*r.uz
		half := (math.Sqrt(max(0, r.rr-(py*py+pz*pz))) + r.slack) / r.proj
		t0, t1, foot = max(0, tc-half), min(1, tc+half), max(0, min(1, tc))
	}
	ey, ez := wy-foot*r.uy, wz-foot*r.uz
	room := r.rr - (ey*ey + ez*ez)
	if room < 0 {
		return 0, -1
	}
	h := math.Sqrt(room) + r.slack
	xa, xb := r.a.X+t0*r.ux, r.a.X+t1*r.ux
	lo, hi := min(xa, xb)-h, max(xa, xb)+h
	a, b := r.x0, r.x1
	if lo > float64(a) {
		a = int(min(math.Ceil(lo), float64(b)+1))
	}
	if hi < float64(b) {
		b = int(max(math.Floor(hi), float64(a)-1))
	}
	return a, b
}

// boundRange clamps a continuous interval to valid integer site indices;
// the range is empty (a > b) when the interval misses [0, n).
func boundRange(lo, hi float64, n int) (int, int) {
	return int(min(max(math.Floor(lo), 0), float64(n))), int(max(min(math.Ceil(hi), float64(n-1)), -1))
}
