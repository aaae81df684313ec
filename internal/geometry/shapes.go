package geometry

import (
	"fmt"
	"math"
)

// Cylinder builds the idealized cylindrical vessel of Figure 2A: a straight
// tube along the x axis spanning the whole domain, inlet at x=0 and outlet
// at x=nx-1. It packs fluid efficiently into the bounding box (high bulk to
// wall ratio), which the paper identifies as the high-communication case:
// decomposed sub-domains have large contact surfaces.
//
// nx is the tube length in lattice sites; radius the tube radius. The
// cross-section dimensions are sized to fit the tube with a one-site solid
// margin so wall classification works at the rim.
func Cylinder(nx int, radius float64) (*Domain, error) {
	if nx < 4 || radius < 2 {
		return nil, fmt.Errorf("geometry: cylinder too small (nx=%d, r=%g)", nx, radius)
	}
	return Build(cylinderTree(nx, radius))
}

// cylinderTree returns Cylinder's arguments to Build.
func cylinderTree(nx int, radius float64) (string, int, int, int, []Capsule, []Port) {
	side := int(math.Ceil(2*radius)) + 5
	c := float64(side-1) / 2
	caps := []Capsule{{
		A: Vec3{-1, c, c}, // extend past the faces so ports are full disks
		B: Vec3{float64(nx), c, c},
		R: radius,
	}}
	ports := []Port{
		{XPlane: 0, Center: Vec3{0, c, c}, Radius: radius, Type: Inlet},
		{XPlane: nx - 1, Center: Vec3{0, c, c}, Radius: radius, Type: Outlet},
	}
	return "cylinder", nx, side, side, caps, ports
}

// StenosedCylinder builds a cylindrical vessel with a smooth concentric
// narrowing at mid-length — the stenosis geometry behind fractional flow
// reserve assessment, the clinical application (FFR-CT) the paper's
// introduction motivates hemodynamic simulation with. severity is the
// fractional radius reduction at the throat (0.5 = half radius); width
// the axial half-width of the Gaussian narrowing in lattice sites.
func StenosedCylinder(nx int, radius, severity, width float64) (*Domain, error) {
	if nx < 8 || radius < 3 {
		return nil, fmt.Errorf("geometry: stenosed cylinder too small (nx=%d, r=%g)", nx, radius)
	}
	if severity <= 0 || severity >= 0.9 {
		return nil, fmt.Errorf("geometry: stenosis severity %g outside (0, 0.9)", severity)
	}
	if width <= 0 {
		return nil, fmt.Errorf("geometry: stenosis width %g must be positive", width)
	}
	return Build(stenosisTree(nx, radius, severity, width))
}

// stenosisTree returns StenosedCylinder's arguments to Build.
func stenosisTree(nx int, radius, severity, width float64) (string, int, int, int, []Capsule, []Port) {
	side := int(math.Ceil(2*radius)) + 5
	c := float64(side-1) / 2
	mid := float64(nx-1) / 2
	// Chain of short capsules whose radius follows the Gaussian throat.
	var caps []Capsule
	prevX := -1.0
	prevR := radius
	for x := 0; x <= nx; x++ {
		fx := float64(x)
		r := radius * (1 - severity*math.Exp(-((fx-mid)*(fx-mid))/(2*width*width)))
		caps = append(caps, Capsule{
			A: Vec3{prevX, c, c},
			B: Vec3{fx, c, c},
			R: math.Min(prevR, r), // conservative: throat never widens a segment
		})
		prevX, prevR = fx, r
	}
	ports := []Port{
		{XPlane: 0, Center: Vec3{0, c, c}, Radius: radius, Type: Inlet},
		{XPlane: nx - 1, Center: Vec3{0, c, c}, Radius: radius, Type: Outlet},
	}
	return "stenosis", nx, side, side, caps, ports
}

// Aorta builds a synthetic aorta (Figure 2B): ascending segment, arch,
// descending segment, plus the three arch branches (brachiocephalic, left
// carotid, left subclavian analogues). Scale is the ascending-aorta radius
// in lattice sites; the rest of the anatomy is proportioned from it. The
// paper characterizes this as the typical-communication,
// typical-load-balance case.
func Aorta(scale float64) (*Domain, error) {
	if scale < 3 {
		return nil, fmt.Errorf("geometry: aorta scale %g too small", scale)
	}
	return Build(aortaTree(scale))
}

// aortaTree returns Aorta's arguments to Build.
func aortaTree(scale float64) (string, int, int, int, []Capsule, []Port) {
	r := scale // ascending radius
	// Domain sized to hold the arch. x is the inferior-superior axis so the
	// inlet (aortic root) and outlet (descending aorta) sit on x planes.
	archR := 3.5 * r  // arch radius of curvature
	height := 7.0 * r // how far the arch rises along x
	nx := int(height + 2*r)
	ny := int(2*archR + 4*r)
	nz := int(2*r + 6)
	cz := float64(nz-1) / 2

	// Centerline: up (ascending), over (arch, a semicircle in the x-y
	// plane), down (descending). Sampled into short capsule segments.
	var caps []Capsule
	yAsc := 2 * r          // ascending limb y position
	yDesc := 2*r + 2*archR // descending limb y position
	top := height

	// Ascending aorta: from x=0 up to the arch start.
	caps = append(caps, Capsule{A: Vec3{-1, yAsc, cz}, B: Vec3{top - archR, yAsc, cz}, R: r})
	// Arch: semicircle from (top-archR, yAsc) to (top-archR, yDesc),
	// centered at (top-archR, (yAsc+yDesc)/2). Taper slightly.
	cyMid := (yAsc + yDesc) / 2
	const archSegs = 24
	prev := Vec3{top - archR, yAsc, cz}
	for i := 1; i <= archSegs; i++ {
		th := math.Pi * float64(i) / archSegs // 0..pi
		p := Vec3{
			X: top - archR + archR*math.Sin(th),
			Y: cyMid - archR*math.Cos(th),
			Z: cz,
		}
		taper := 1 - 0.15*float64(i)/archSegs
		caps = append(caps, Capsule{A: prev, B: p, R: r * taper})
		prev = p
	}
	// Descending aorta: back down to x=0 (outlet), tapered.
	caps = append(caps, Capsule{A: prev, B: Vec3{-1, yDesc, cz}, R: 0.85 * r})

	// Branch vessels off the arch crown, rising to the superior (x=nx-1)
	// face, as smaller outlets.
	branchR := 0.38 * r
	for i, frac := range []float64{0.30, 0.50, 0.70} {
		th := math.Pi * frac
		base := Vec3{
			X: top - archR + archR*math.Sin(th),
			Y: cyMid - archR*math.Cos(th),
			Z: cz,
		}
		tip := Vec3{X: float64(nx), Y: base.Y + float64(i-1)*2*branchR, Z: cz}
		caps = append(caps, Capsule{A: base, B: tip, R: branchR})
	}

	ports := []Port{
		{XPlane: 0, Center: Vec3{0, yAsc, cz}, Radius: r, Type: Inlet},
		{XPlane: 0, Center: Vec3{0, yDesc, cz}, Radius: 0.9 * r, Type: Outlet},
		// One catch-all outlet on the superior face covers all three
		// branch tips.
		{XPlane: nx - 1, Center: Vec3{0, cyMid, cz}, Radius: archR + 3*branchR, Type: Outlet},
	}
	return "aorta", nx, ny, nz, caps, ports
}

// Bifurcation builds a symmetric Y-branch: a parent vessel that splits
// into two daughters whose radii follow Murray's law (r_d = r_p 2^{-1/3}),
// the canonical junction geometry of arterial trees and the simplest case
// where flow splitting and branch-point wall shear matter clinically.
func Bifurcation(scale float64) (*Domain, error) {
	if scale < 3 {
		return nil, fmt.Errorf("geometry: bifurcation scale %g too small", scale)
	}
	return Build(bifurcationTree(scale))
}

// bifurcationTree returns Bifurcation's arguments to Build.
func bifurcationTree(scale float64) (string, int, int, int, []Capsule, []Port) {
	r := scale
	rd := r * math.Pow(2, -1.0/3.0)
	parentLen := 6 * r
	branchLen := 8 * r
	const spread = 0.45 // radians off axis per daughter

	nx := int(parentLen + branchLen*math.Cos(spread) + 2*r)
	ny := int(2*branchLen*math.Sin(spread) + 6*r)
	nz := int(2*r + 6)
	cy := float64(ny-1) / 2
	cz := float64(nz-1) / 2

	junction := Vec3{parentLen, cy, cz}
	caps := []Capsule{
		{A: Vec3{-1, cy, cz}, B: junction, R: r},
	}
	for s := -1.0; s <= 1.0; s += 2 {
		tip := Vec3{
			X: junction.X + branchLen*math.Cos(spread) + 2*r,
			Y: junction.Y + s*(branchLen+2*r)*math.Sin(spread),
			Z: cz,
		}
		caps = append(caps, Capsule{A: junction, B: tip, R: rd})
	}
	ports := []Port{
		{XPlane: 0, Center: Vec3{0, cy, cz}, Radius: r, Type: Inlet},
		{XPlane: nx - 1, Center: Vec3{0, cy, cz}, Radius: float64(ny), Type: Outlet},
	}
	return "bifurcation", nx, ny, nz, caps, ports
}

// Cerebral builds a synthetic cerebral vasculature (Figure 2C): a
// deterministic bifurcating tree of thin vessels. Thin tubes spread over a
// large bounding box give many wall points, a low bulk-to-wall ratio and
// small communication cross-sections — the low-communication case in the
// paper, and the best-performing geometry because wall updates touch fewer
// bytes.
//
// scale is the root vessel radius in lattice sites; depth the number of
// bifurcation generations (4–6 is anatomy-like).
func Cerebral(scale float64, depth int) (*Domain, error) {
	if scale < 2.5 {
		return nil, fmt.Errorf("geometry: cerebral scale %g too small", scale)
	}
	if depth < 1 || depth > 8 {
		return nil, fmt.Errorf("geometry: cerebral depth %d outside [1,8]", depth)
	}
	return Build(cerebralTree(scale, depth))
}

// cerebralTree returns Cerebral's arguments to Build.
func cerebralTree(scale float64, depth int) (string, int, int, int, []Capsule, []Port) {
	segLen := 9 * scale
	// Estimate extent: the tree fans out in y/z while advancing in x.
	nx := int(segLen*float64(depth+1) + 4*scale)
	ny := int(segLen * math.Pow(1.55, float64(depth)))
	nz := ny
	cy, cz := float64(ny-1)/2, float64(nz-1)/2

	var caps []Capsule
	root := Vec3{-1, cy, cz}
	rootEnd := Vec3{segLen, cy, cz}
	caps = append(caps, Capsule{A: root, B: rootEnd, R: scale})
	grow(&caps, rootEnd, Vec3{1, 0, 0}, scale, segLen, depth, 0)

	ports := []Port{
		{XPlane: 0, Center: Vec3{0, cy, cz}, Radius: scale, Type: Inlet},
		{XPlane: nx - 1, Center: Vec3{0, cy, cz}, Radius: math.Max(float64(ny), float64(nz)), Type: Outlet},
	}
	return "cerebral", nx, ny, nz, caps, ports
}

// grow recursively adds a bifurcating pair of child vessels. Murray's law
// thins children by 2^(-1/3); branch planes alternate between y and z so
// the tree fills three dimensions. gen counts completed generations.
func grow(caps *[]Capsule, base Vec3, dir Vec3, r, segLen float64, depth, gen int) {
	if gen >= depth || r < 1.6 {
		// Terminal vessel: run straight to beyond the +x face so it reaches
		// the outlet plane.
		tip := Vec3{base.X + 3*segLen, base.Y, base.Z}
		*caps = append(*caps, Capsule{A: base, B: tip, R: r})
		return
	}
	childR := r * math.Pow(2, -1.0/3.0)
	spread := 0.55 // radians off the parent direction
	for s := -1.0; s <= 1.0; s += 2 {
		var nd Vec3
		if gen%2 == 0 {
			nd = rotateY(dir, s*spread)
		} else {
			nd = rotateZ(dir, s*spread)
		}
		tip := Vec3{base.X + nd.X*segLen, base.Y + nd.Y*segLen, base.Z + nd.Z*segLen}
		*caps = append(*caps, Capsule{A: base, B: tip, R: childR})
		grow(caps, tip, nd, childR, segLen*0.92, depth, gen+1)
	}
}

// rotateY rotates v by angle a in the x-y plane.
func rotateY(v Vec3, a float64) Vec3 {
	c, s := math.Cos(a), math.Sin(a)
	return Vec3{c*v.X - s*v.Y, s*v.X + c*v.Y, v.Z}
}

// rotateZ rotates v by angle a in the x-z plane.
func rotateZ(v Vec3, a float64) Vec3 {
	c, s := math.Cos(a), math.Sin(a)
	return Vec3{c*v.X - s*v.Z, v.Y, s*v.X + c*v.Z}
}
