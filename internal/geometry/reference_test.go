package geometry

import (
	"fmt"
	"math"
)

// referenceBuild is Build as it stood before it learned to visit only the
// rows a capsule can reach: every voxel of every capsule's bounding box
// is tested, walls are collected over the whole box and flipped
// afterwards, ports walk their plane through At. It is kept only as the
// oracle the differential tests and the fuzz target compare Build with.
func referenceBuild(name string, nx, ny, nz int, caps []Capsule, ports []Port) (*Domain, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("geometry: non-positive dimensions %dx%dx%d", nx, ny, nz)
	}
	if len(caps) == 0 {
		return nil, fmt.Errorf("geometry: no capsules supplied for %q", name)
	}
	d := &Domain{Name: name, NX: nx, NY: ny, NZ: nz, Types: make([]PointType, nx*ny*nz)}

	// Pass 1: fluid mask. Limit each capsule's scan to its bounding box so
	// large domains stay affordable.
	for _, c := range caps {
		x0, x1 := referenceBoundRange(math.Min(c.A.X, c.B.X)-c.R, math.Max(c.A.X, c.B.X)+c.R, nx)
		y0, y1 := referenceBoundRange(math.Min(c.A.Y, c.B.Y)-c.R, math.Max(c.A.Y, c.B.Y)+c.R, ny)
		z0, z1 := referenceBoundRange(math.Min(c.A.Z, c.B.Z)-c.R, math.Max(c.A.Z, c.B.Z)+c.R, nz)
		for z := z0; z <= z1; z++ {
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					if c.contains(Vec3{float64(x), float64(y), float64(z)}) {
						d.Types[d.Index(x, y, z)] = Bulk
					}
				}
			}
		}
	}

	// Pass 2: wall classification. A fluid site with any solid neighbor in
	// the 26-neighborhood is a wall site (bounce-back happens there).
	walls := make([]int, 0, nx*ny) // indices to flip after the scan
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if d.Types[d.Index(x, y, z)] != Bulk {
					continue
				}
				if hasSolidNeighbor(d, x, y, z) {
					walls = append(walls, d.Index(x, y, z))
				}
			}
		}
	}
	for _, i := range walls {
		d.Types[i] = Wall
	}

	// Pass 3: ports override wall/bulk classification on their planes.
	for _, p := range ports {
		if p.Type != Inlet && p.Type != Outlet {
			return nil, fmt.Errorf("geometry: port type %v is not Inlet or Outlet", p.Type)
		}
		if p.XPlane < 0 || p.XPlane >= nx {
			return nil, fmt.Errorf("geometry: port plane x=%d outside domain [0,%d)", p.XPlane, nx)
		}
		marked := 0
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				if d.At(p.XPlane, y, z) == Solid {
					continue
				}
				dy, dz := float64(y)-p.Center.Y, float64(z)-p.Center.Z
				if math.Sqrt(dy*dy+dz*dz) <= p.Radius {
					d.Types[d.Index(p.XPlane, y, z)] = p.Type
					marked++
				}
			}
		}
		if marked == 0 {
			return nil, fmt.Errorf("geometry: port at x=%d marked no sites", p.XPlane)
		}
	}
	return d, nil
}

// hasSolidNeighbor reports whether any 26-neighbor of (x,y,z) is solid.
func hasSolidNeighbor(d *Domain, x, y, z int) bool {
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				if d.At(x+dx, y+dy, z+dz) == Solid {
					return true
				}
			}
		}
	}
	return false
}

// referenceBoundRange clamps a continuous interval to valid integer site indices.
func referenceBoundRange(lo, hi float64, n int) (int, int) {
	a := int(math.Floor(lo))
	b := int(math.Ceil(hi))
	if a < 0 {
		a = 0
	}
	if b > n-1 {
		b = n - 1
	}
	return a, b
}
