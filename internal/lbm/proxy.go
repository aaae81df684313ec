//lint:hot
package lbm

import (
	"fmt"
	"math"

	"repro/internal/geometry"
)

// Layout selects where a block keeps its distributions.
type Layout int

// Data layouts offered by the proxy app, mirroring lbm-proxy-app.
const (
	AOS Layout = iota // array of structures: f[cell*19+q]; favored on CPUs
	SOA               // structure of arrays: f[q*n+cell]; favored on GPUs
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

// KernelConfig identifies one kernel variant of the engine: where a
// block keeps its distributions, how a pass streams them, and which
// collision routine it calls.
type KernelConfig struct {
	Layout   Layout
	Pattern  Pattern
	Unrolled bool // collideBGK; otherwise CollideCell's rolled loops (SOA only in the proxy, as in the paper)
}

// String renders the variant label used in Figures 4 and 8.
func (k KernelConfig) String() string {
	s := fmt.Sprintf("%v-%v", k.Layout, k.Pattern)
	if k.Unrolled {
		s += "-unrolled"
	}
	return s
}

// harvey is the kernel of the HARVEY engine, Sparse's and every par
// rank's: AOS-AA with the unrolled collision (Block.CollideStream).
var harvey = KernelConfig{Layout: AOS, Pattern: AA, Unrolled: true}

// Proxy is the lbm-proxy-app equivalent: the engine over a cylinder,
// periodic along the axis and driven by a body force, isolating the
// common LBM kernels from HARVEY's irregularity. Its block runs one of
// the six kernel variants of Figures 4 and 8 on the lattice's link
// table, and its passes split across OpenMP-style threads.
type Proxy struct {
	Sparse

	threads int
	pass    func(w, lo, hi int) // one thread's share of a pass, bound once for ForRanges
}

// NewProxy builds a proxy-app solver on a cylinder of the given axial
// length and radius. The force must have a positive x component to drive
// flow; Params.PeriodicX is implied and UMax ignored. The proxy app
// implements BGK only, and unrolled kernels for SOA only.
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
	l, err := NewLattice(dom, p)
	if err != nil {
		return nil, err
	}
	b := Block{f: make([]float64, l.n*NQ), kernel: cfg, links: l.linkTable()}
	if cfg.Pattern == AB {
		b.g = make([]float64, len(b.f))
	}
	var rest [NQ]float64
	Equilibrium(1, 0, 0, 0, &rest)
	for i := range l.n {
		b.store(i, 0, &rest)
	}
	pr := &Proxy{Sparse: Sparse{Lattice: l, Block: b}}
	pr.pass = func(_, lo, hi int) { pr.collideSpan(lo, hi, pr.params) }
	pr.threads = 1
	return pr, nil
}

// SetThreads sets the worker count for subsequent steps (clamped below
// at 1). Like an OpenMP thread sweep, this is how the proxy app measures
// per-thread memory-bandwidth scaling on the host. Every pass is
// hazard-free per cell (an AB pass writes only its own cell of the
// second array; an AA pass touches only locations no other cell does),
// so each thread steps a contiguous share of the cells and needs no
// synchronization beyond the per-step join. ForRanges cuts the cells,
// and each share finds where its links start by a walk over the runs
// (Links.from).
func (pr *Proxy) SetThreads(n int) {
	pr.threads = max(n, 1)
}

// Threads returns the current worker count.
func (pr *Proxy) Threads() int { return pr.threads }

// FluidPoints returns the number of fluid lattice sites.
func (pr *Proxy) FluidPoints() int { return pr.n }

// Step advances one timestep: the kernel's pass, each thread's share on
// its own goroutine, then the step's end (the cylinder is periodic, so
// no boundary cell is overridden).
func (pr *Proxy) Step() {
	ForRanges(pr.n, pr.threads, pr.pass)
	pr.swap()
	pr.ApplyBoundaries(pr.params)
}

// Run advances the given number of timesteps.
func (pr *Proxy) Run(steps int) {
	for i := 0; i < steps; i++ {
		pr.Step()
	}
}

// CenterlineSpeed returns the flow speed at the cylinder's center, a
// convergence probe for force-driven runs.
func (pr *Proxy) CenterlineSpeed() float64 {
	_, ux, uy, uz := pr.Macro(pr.SiteAt(pr.NX/2, (pr.NY-1)/2, (pr.NZ-1)/2))
	return math.Sqrt(ux*ux + uy*uy + uz*uz)
}

// rolledBGK is BGK collided by CollideCell's rolled loops where a step
// body would call collideBGK: the step bodies take it from collideSpan
// for a kernel that is not Unrolled. No Params hold it (Validate
// rejects it), and CollideCell runs it as its BGK arm.
const rolledBGK CollisionOp = -1

// collideSpan is the pass of the block's kernel over cells [lo, hi): all
// of a pass, or one thread's share of it, since no two cells of a pass
// touch one location. An AOS-AA pass is HARVEY's (CollideStream) over the
// span's cells, the runs clipped to it and its rows from the first row at
// or after lo (Links.from); the other kernels' passes are collideCells.
func (b *Block) collideSpan(lo, hi int, p Params) {
	if !b.kernel.Unrolled && p.Collision == BGK {
		p.Collision = rolledBGK
	}
	switch {
	case b.kernel.Layout == SOA || b.kernel.Pattern == AB:
		b.collideCells(lo, hi, p)
	case b.steps&1 == 0:
		collideSwap(b.f[lo*NQ:hi*NQ], p)
	default:
		l := &b.links
		k, row := l.from(lo)
		rows, next := l.rows[row:], lo
		for ; uint(k) < uint(len(l.runs)) && int(l.runs[k].lo) < hi; k++ {
			r := l.runs[k]
			r.lo, r.hi = max(r.lo, int32(lo)), min(r.hi, int32(hi))
			rows = collideRows(b.f, b.f[next*NQ:int(r.lo)*NQ], rows, b.halo, p)
			collideRun(b.f, &r, p)
			next = int(r.hi)
		}
		collideRows(b.f, b.f[next*NQ:hi*NQ], rows, b.halo, p)
	}
}

// collideCells is the pass of an SOA or an AB kernel over cells [lo, hi),
// in one form for both layouts: cell i keeps its value along q in slot
// i*cs + q*qs of f (strides), and the pass walks the cells a stretch at a
// time, a stretch being cells whose locations sit at the same offsets from
// i*cs (offsets): a run, or a cell outside every run by itself, or the
// whole span in an even AA pass, whose locations are the cell's own.
// These blocks have no halo.
func (b *Block) collideCells(lo, hi int, p Params) {
	cs, _ := b.strides()
	dst := b.f
	if b.kernel.Pattern == AB {
		dst = b.g
	}
	var nb [NQ]int32
	var r, w [NQ]int
	if !b.linked(b.steps) {
		b.offsets(0, b.steps, &nb, &r, &w)
		collideOffsets(b.f, dst, lo, hi, cs, &r, &w, p)
		return
	}
	l := &b.links
	k, _ := l.from(lo)
	for i := lo; i < hi; {
		next := i + 1
		if uint(k) < uint(len(l.runs)) && int(l.runs[k].lo) <= i {
			next = min(hi, int(l.runs[k].hi))
			l.runs[k].row(int32(i), &nb)
			k++
		} else {
			l.rowAt(k, i, &nb)
		}
		b.offsets(i, b.steps, &nb, &r, &w)
		collideOffsets(b.f, dst, i, next, cs, &r, &w, p)
		i = next
	}
}

// collideOffsets collides cells [lo, hi), each read from src at i*cs +
// r[q] and written to dst at i*cs + w[q].
func collideOffsets(src, dst []float64, lo, hi, cs int, r, w *[NQ]int, p Params) {
	gx, gy, gz := p.Force[0], p.Force[1], p.Force[2]
	omega := 1 / p.Tau
	bgk := p.Collision == BGK
	var in, c [NQ]float64
	for i := lo; i < hi; i++ {
		at := i * cs
		in[0] = src[at+r[0]]
		for q := 1; q < NQ-1; q += 2 { // pairs: 12–15 % faster than a loop over q
			in[q], in[q+1] = src[at+r[q]], src[at+r[q+1]]
		}
		if bgk {
			collideBGK(&c, &in, omega, gx, gy, gz)
		} else {
			c = in
			CollideCell(&c, p, gx, gy, gz)
		}
		dst[at+w[0]] = c[0]
		for q := 1; q < NQ-1; q += 2 {
			dst[at+w[q]], dst[at+w[q+1]] = c[q], c[q+1]
		}
	}
}

// linked reports whether a pass of the block's kernel after steps
// timesteps reads link rows: an AB pass always, an AA pass when steps is
// odd. The readouts read them at the same counts.
func (b *Block) linked(steps int) bool {
	return b.kernel.Pattern == AB || steps&1 == 1
}

// strides returns where the block's layout keeps cell i's value along q:
// in slot i*cs + q*qs of f.
func (b *Block) strides() (cs, qs int) {
	if b.kernel.Layout == SOA {
		return 1, len(b.f) / NQ
	}
	return NQ, 1
}

// offsets fills r and w with where a pass of the block's kernel after
// steps timesteps reads cell i's value along each q and writes the
// collided c[q], relative to slot i*cs (strides), given the cell's link
// row nb when the pass is linked; a negative entry is a solid link.
//
//   - AA: the value along q is where the state keeps it — slot opp(q) of
//     the cell upstream, along opp(q), where the last pass pushed it, or
//     the cell's own slot q (the even pass's own slots, or a bounce at a
//     solid link) — and c[q] goes back reversed, to the location of
//     opp(q), as HARVEY's passes do: w[q] = r[opp q].
//   - AB: the value along q is pulled from slot q of the cell upstream, or
//     bounced back from the cell's own value along opp(q) at a solid
//     link, and c[q] goes to the cell's own slot q of g; the arrays swap
//     after the pass (swap).
//
// So r is where the state after steps timesteps keeps cell i in an AA
// block, and w where it keeps it in an AB block.
func (b *Block) offsets(i, steps int, nb *[NQ]int32, r, w *[NQ]int) {
	cs, qs := b.strides()
	ab, linked := b.kernel.Pattern == AB, b.linked(steps)
	at := func(q, oq int, up int32) (rq, wq int) {
		switch {
		case ab && up >= 0:
			return (int(up)-i)*cs + q*qs, q * qs
		case ab:
			return oq * qs, q * qs
		case linked && up >= 0:
			return (int(up)-i)*cs + oq*qs, 0
		}
		return q * qs, 0
	}
	r[0], w[0] = 0, 0
	// Opposite directions are the pairs (q, q+1) for odd q.
	for q := 1; q < NQ-1; q += 2 {
		r[q], w[q] = at(q, q+1, nb[q+1])
		r[q+1], w[q+1] = at(q+1, q, nb[q])
		if !ab {
			w[q], w[q+1] = r[q+1], r[q]
		}
	}
}

// swap ends an AB pass: the array it filled becomes the state.
func (b *Block) swap() {
	if b.kernel.Pattern == AB {
		b.f, b.g = b.g, b.f
	}
}
