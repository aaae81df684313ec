//lint:hot
package lbm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geometry"
)

// Layout selects the proxy app's fluid-point data layout.
type Layout int

// Data layouts offered by the proxy app, mirroring lbm-proxy-app.
const (
	AOS Layout = iota // array of structures: f[site*19+q]; favored on CPUs
	SOA               // structure of arrays: f[q*n+site]; favored on GPUs
)

// String names the layout as the paper's figures do.
func (l Layout) String() string {
	if l == AOS {
		return "AOS"
	}
	return "SOA"
}

// Pattern selects the propagation pattern.
type Pattern int

// Propagation patterns offered by the proxy app.
const (
	AB Pattern = iota // two arrays, pull streaming every step
	AA                // one array, alternating in-place/neighbor access
)

// String names the pattern as the paper's figures do.
func (p Pattern) String() string {
	if p == AB {
		return "AB"
	}
	return "AA"
}

// KernelConfig identifies one proxy-app kernel variant.
type KernelConfig struct {
	Layout   Layout
	Pattern  Pattern
	Unrolled bool // hand-unrolled inner q loop (SOA only, as in the paper)
}

// String renders the variant label used in Figures 4 and 8.
func (k KernelConfig) String() string {
	s := fmt.Sprintf("%v-%v", k.Layout, k.Pattern)
	if k.Unrolled {
		s += "-unrolled"
	}
	return s
}

// Proxy is the lbm-proxy-app equivalent: a dense fluid-only solver in a
// cylindrical geometry, periodic along the axis and driven by a body
// force, isolating the common LBM kernels from HARVEY's irregularity.
type Proxy struct {
	Config KernelConfig
	Params Params
	Dom    *geometry.Domain

	nx, ny, nz int
	nsites     int
	fluid      []bool    // dense mask
	xp1, xm1   []int     // periodic x neighbor tables
	f, g       []float64 // g is the second array for AB; unused for AA
	fluidCount int
	steps      int

	// rangeFn is the configured kernel's slab worker, bound once here:
	// binding a method value inside Step would allocate a closure every
	// timestep.
	rangeFn func(zLo, zHi int)

	// threads is the OpenMP-style worker count; kernels split the z range
	// into slabs. 1 (the default) runs serially. All kernel passes are
	// hazard-free across sites (AB writes a second array; both AA passes
	// touch only slots no other site reads or writes in the same pass),
	// so slab workers need no synchronization beyond the per-step join.
	threads int
}

// NewProxy builds a proxy-app solver on a cylinder of the given axial
// length and radius. The force must have a positive x component to drive
// flow; Params.PeriodicX is implied and UMax ignored.
func NewProxy(cfg KernelConfig, nxLen int, radius float64, p Params) (*Proxy, error) {
	if cfg.Unrolled && cfg.Layout != SOA {
		return nil, fmt.Errorf("lbm: unrolled kernels are provided for SOA only, got %v", cfg)
	}
	p.PeriodicX = true
	p.UMax = 0
	if p.Collision != BGK {
		return nil, fmt.Errorf("lbm: the proxy app implements BGK only, got %v", p.Collision)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dom, err := geometry.Cylinder(nxLen, radius)
	if err != nil {
		return nil, err
	}
	pr := &Proxy{
		Config: cfg, Params: p, Dom: dom,
		nx: dom.NX, ny: dom.NY, nz: dom.NZ,
		threads: 1,
	}
	pr.nsites = pr.nx * pr.ny * pr.nz
	pr.fluid = make([]bool, pr.nsites)
	for i, t := range dom.Types {
		if t.IsFluid() {
			pr.fluid[i] = true
			pr.fluidCount++
		}
	}
	pr.xp1 = make([]int, pr.nx)
	pr.xm1 = make([]int, pr.nx)
	for x := 0; x < pr.nx; x++ {
		pr.xp1[x] = (x + 1) % pr.nx
		pr.xm1[x] = (x - 1 + pr.nx) % pr.nx
	}
	pr.f = make([]float64, pr.nsites*NQ)
	if cfg.Pattern == AB {
		pr.g = make([]float64, pr.nsites*NQ)
	}
	var feq [NQ]float64
	Equilibrium(1, 0, 0, 0, &feq)
	for i := 0; i < pr.nsites; i++ {
		if !pr.fluid[i] {
			continue
		}
		for q := 0; q < NQ; q++ {
			pr.f[pr.slot(i, q)] = feq[q]
		}
	}
	switch {
	case cfg.Pattern == AB && cfg.Unrolled:
		pr.rangeFn = pr.stepABUnrolledRange
	case cfg.Pattern == AB:
		pr.rangeFn = pr.stepABRange
	case cfg.Pattern == AA && cfg.Unrolled:
		pr.rangeFn = pr.stepAAUnrolledRange
	default:
		pr.rangeFn = pr.stepAARange
	}
	return pr, nil
}

// slot maps (site, direction) to the linear index for the configured layout.
func (p *Proxy) slot(site, q int) int {
	if p.Config.Layout == AOS {
		return site*NQ + q
	}
	return q*p.nsites + site
}

// idx returns the dense site index of (x, y, z).
func (p *Proxy) idx(x, y, z int) int { return (z*p.ny+y)*p.nx + x }

// neighbor returns the dense index of the site one step along q from
// (x, y, z) with periodic wrap in x, and whether it is fluid. The cylinder
// keeps a solid margin in y and z, so those coordinates never leave the
// array for fluid sites.
func (p *Proxy) neighbor(x, y, z, q int) (int, bool) {
	nx := x
	switch Cx[q] {
	case 1:
		nx = p.xp1[x]
	case -1:
		nx = p.xm1[x]
	}
	i := p.idx(nx, y+Cy[q], z+Cz[q])
	return i, p.fluid[i]
}

// SetThreads sets the worker count for subsequent steps (clamped below
// at 1). Like an OpenMP thread sweep, this is how the proxy app measures
// per-thread memory-bandwidth scaling on the host.
func (p *Proxy) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	p.threads = n
}

// Threads returns the current worker count.
func (p *Proxy) Threads() int { return p.threads }

// zSlabs partitions the interior z range [1, nz-1) into the configured
// number of contiguous slabs and runs fn on each concurrently.
func (p *Proxy) zSlabs(fn func(z0, z1 int)) {
	lo, hi := 1, p.nz-1
	n := p.threads
	if n > hi-lo {
		n = hi - lo
	}
	if n <= 1 {
		fn(lo, hi)
		return
	}
	var wg sync.WaitGroup
	span := hi - lo
	for t := 0; t < n; t++ {
		z0 := lo + span*t/n
		z1 := lo + span*(t+1)/n
		wg.Add(1)
		go func(z0, z1 int) {
			defer wg.Done()
			fn(z0, z1)
		}(z0, z1)
	}
	wg.Wait()
}

// FluidPoints returns the number of fluid lattice sites.
func (p *Proxy) FluidPoints() int { return p.fluidCount }

// Steps returns completed timesteps.
func (p *Proxy) Steps() int { return p.steps }

// Step advances one timestep using the kernel variant bound at
// construction. AB kernels pull-stream from f into g, so the arrays swap
// after the pass; AA kernels work in place.
func (p *Proxy) Step() {
	p.zSlabs(p.rangeFn)
	if p.Config.Pattern == AB {
		p.f, p.g = p.g, p.f
	}
	p.steps++
}

// Run advances the given number of timesteps.
func (p *Proxy) Run(steps int) {
	for i := 0; i < steps; i++ {
		p.Step()
	}
}

// collideForce applies BGK relaxation plus first-order forcing to cell.
func (p *Proxy) collideForce(cell *[NQ]float64) {
	omega := 1 / p.Params.Tau
	rho, ux, uy, uz := Moments(cell)
	var feq [NQ]float64
	Equilibrium(rho, ux, uy, uz, &feq)
	fx, fy, fz := p.Params.Force[0], p.Params.Force[1], p.Params.Force[2]
	for q := 0; q < NQ; q++ {
		cell[q] -= omega * (cell[q] - feq[q])
		cell[q] += 3 * W[q] * (float64(Cx[q])*fx + float64(Cy[q])*fy + float64(Cz[q])*fz)
	}
}

// stepABRange is the fused pull-stream + collide AB kernel from f into
// g over one z slab. Safe to run slab-parallel: f is read-only and each
// site writes only its own g slots.
func (p *Proxy) stepABRange(zLo, zHi int) {
	var cell [NQ]float64
	for z := zLo; z < zHi; z++ {
		for y := 1; y < p.ny-1; y++ {
			for x := 0; x < p.nx; x++ {
				site := p.idx(x, y, z)
				if !p.fluid[site] {
					continue
				}
				for q := 0; q < NQ; q++ {
					up, ok := p.neighbor(x, y, z, Opp[q]) // site at x - c_q
					if ok {
						cell[q] = p.f[p.slot(up, q)]
					} else {
						cell[q] = p.f[p.slot(site, Opp[q])] // bounce-back
					}
				}
				p.collideForce(&cell)
				for q := 0; q < NQ; q++ {
					p.g[p.slot(site, q)] = cell[q]
				}
			}
		}
	}
}

// stepAARange is Bailey's AA pattern on a single array, over one z slab.
// Even steps collide in place writing opposite slots; odd steps gather
// from neighbors' opposite slots, collide, and scatter to neighbors'
// normal slots. Site updates are hazard-free (each slot is read and
// written by exactly one site per pass).
func (p *Proxy) stepAARange(zLo, zHi int) {
	var cell [NQ]float64
	even := p.steps%2 == 0
	for z := zLo; z < zHi; z++ {
		for y := 1; y < p.ny-1; y++ {
			for x := 0; x < p.nx; x++ {
				site := p.idx(x, y, z)
				if !p.fluid[site] {
					continue
				}
				if even {
					for q := 0; q < NQ; q++ {
						cell[q] = p.f[p.slot(site, q)]
					}
					p.collideForce(&cell)
					for q := 0; q < NQ; q++ {
						p.f[p.slot(site, Opp[q])] = cell[q]
					}
					continue
				}
				// Odd step: gather f*_q(x-c_q) which lives in slot opp(q)
				// of the upstream site (or slot q locally after bounce).
				for q := 0; q < NQ; q++ {
					up, ok := p.neighbor(x, y, z, Opp[q])
					if ok {
						cell[q] = p.f[p.slot(up, Opp[q])]
					} else {
						cell[q] = p.f[p.slot(site, q)]
					}
				}
				p.collideForce(&cell)
				// Scatter f*_q(x) to slot q of the downstream site, so the
				// array returns to normal order; bounce writes locally.
				for q := 0; q < NQ; q++ {
					down, ok := p.neighbor(x, y, z, q)
					if ok {
						p.f[p.slot(down, q)] = cell[q]
					} else {
						p.f[p.slot(site, Opp[q])] = cell[q]
					}
				}
			}
		}
	}
}

// Macro returns density and velocity at dense site (x, y, z). For AA runs
// the caller should sample after an even number of steps, when the array
// is in normal order.
func (p *Proxy) Macro(x, y, z int) (rho, ux, uy, uz float64) {
	site := p.idx(x, y, z)
	var cell [NQ]float64
	for q := 0; q < NQ; q++ {
		cell[q] = p.f[p.slot(site, q)]
	}
	return Moments(&cell)
}

// CenterlineSpeed returns the axial velocity at the cylinder center, a
// convergence probe for force-driven runs.
func (p *Proxy) CenterlineSpeed() float64 {
	_, ux, uy, uz := p.Macro(p.nx/2, (p.ny-1)/2, (p.nz-1)/2)
	return math.Sqrt(ux*ux + uy*uy + uz*uz)
}

// TotalMass sums density over fluid sites.
func (p *Proxy) TotalMass() float64 {
	var m float64
	for site := 0; site < p.nsites; site++ {
		if !p.fluid[site] {
			continue
		}
		for q := 0; q < NQ; q++ {
			m += p.f[p.slot(site, q)]
		}
	}
	return m
}
