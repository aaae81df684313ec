//lint:hot
package lbm

import "math"

// remoteLink is the first link-row entry below solidNeighbor. A link row
// holds, for each direction q of one cell, where the cell's value along q
// is kept between steps: the index of the cell at x + c_q within the
// block, solidNeighbor (-1), or RemoteLink(k) for slot k of the block's
// halo (the cell at x + c_q belongs to another rank). Entry 0 is the cell
// itself.
const remoteLink = int32(-2)

// RemoteLink is the link-row entry that keeps a value in slot k of a
// block's halo.
func RemoteLink(k int) int32 { return remoteLink - int32(k) }

// Block is the HARVEY engine over a set of cells: the whole lattice for
// Sparse, one rank's share of it for each rank of a par.Runner. It holds
// the cells' distributions, their link rows, a halo of one value per
// remote link, the inlet and outlet cells, and the number of timesteps
// the state has made. A timestep is its two passes, CollideStream and
// then ApplyBoundaries, with a rank's halo exchange between them. The
// zero value is a block of no cells; create one with NewBlock.
type Block struct {
	// NQ distributions a cell, where the kernel keeps them: for AA in the
	// natural layout after an even number of steps, in the swapped one
	// after an odd number (see CollideStream), so a readout goes through
	// Cell and SetCell.
	f []float64
	g []float64 // an AB kernel's second array, which each pass fills from f

	kernel KernelConfig // the step body: harvey for NewBlock's

	links Links // the cells' link rows, entries as remoteLink says
	// halo has one slot per remote link. After an even step a halo
	// exchange fills it with the values that arrived; the odd step reads
	// them and leaves the values to send in their place.
	halo []float64

	bounds []BoundarySite // inlet and outlet cells, ascending
	steps  int            // timesteps completed
}

// NewBlock returns the block of the len(f)/NQ cells whose distributions f
// will hold, with the link table links, halo remote links and the
// boundary cells bounds. The caller allocates f, before or after it
// builds the table, whichever keeps the peak heap lower (par's ranks
// allocate it first). The fluid is at rest with unit density at step 0;
// or, when from is not nil, the step count is from's and cell i is from's
// cell sites[i]. The cells are stored over ForRanges ranges, so each
// range's goroutine is the first to touch its pages.
func NewBlock(f []float64, links Links, halo int, bounds []BoundarySite, from *Block, sites []int32) Block {
	n := len(f) / NQ
	b := Block{f: f, kernel: harvey, links: links, halo: make([]float64, halo), bounds: bounds}
	if from != nil {
		b.steps = from.steps
	}
	ForRanges(n, SetupWorkers(n), func(_, lo, hi int) {
		if from == nil {
			var rest [NQ]float64
			Equilibrium(1, 0, 0, 0, &rest)
			for w := b.f[lo*NQ : hi*NQ]; len(w) >= NQ; w = w[NQ:] {
				*(*[NQ]float64)(w[:NQ]) = rest
			}
			return
		}
		// Each slot and halo slot is the location of one cell at either
		// parity (CollideStream), so no two ranges store to the same one.
		for i, si := range sites[lo:hi] {
			c := from.Cell(int(si))
			b.store(lo+i, b.steps, &c)
		}
	})
	return b
}

// CollideStream is the step body of the HARVEY engine, the first pass of
// a timestep over the block. It runs Bailey's AA pattern on the one array
// f, in place, and the parity of the step count picks the pass:
//
//   - Even step, f in the natural layout (slot i*NQ+q holds cell i's
//     value along q): collide each cell and write c[q] to the cell's own
//     opposite slot, i*NQ+opp(q). No link row is read.
//   - Odd step, f in the swapped layout the even pass leaves: for each
//     direction q, loc(i,q) is the slot a push along q would write — slot
//     q of the cell at x + c_q, the cell's own opposite slot when the link
//     is solid, halo[k] when it is RemoteLink(k). The pass reads the
//     cell's value along opp(q) from loc(i,q), collides, and writes c[q]
//     back to loc(i,q). It ends in the natural layout. Inside a run of
//     links (Links) loc(i,q) − i*NQ is the same for every cell, and no
//     row is read.
//
// Each cell touches only its own NQ locations, so both passes are in
// place, and a cell's value along q after a step is the value push
// streaming with halfway bounce-back leaves there, bit for bit. On an odd
// step halo[k] holds the value that arrived from the other block and
// receives the value to send.
//
// The loops are shaped for the compiler's prover (gated by cmd/lint
// -perfbudget): NQ-wide windows advance over the arrays, every scattered
// load and store outside a run is guarded by one unsigned compare that is
// range test and bounds proof at once, and a run's windows share the one
// length its loop compares against.
//
// That is the HARVEY kernel, AOS-AA with the collision unrolled. A block
// of another kernel (NewProxy's) runs its pass over all of its cells
// through collideSpan.
func (b *Block) CollideStream(p Params) {
	switch {
	case b.kernel != harvey:
		b.collideSpan(0, len(b.f)/NQ, p)
		b.swap()
	case b.steps&1 == 0:
		collideSwap(b.f, p)
	default:
		collideLinked(b.f, &b.links, b.halo, p)
	}
}

// collideSwap is the even pass: collide each cell and store it reversed.
func collideSwap(f []float64, p Params) {
	gx, gy, gz := p.Force[0], p.Force[1], p.Force[2]
	omega := 1 / p.Tau
	bgk := p.Collision == BGK
	var c [NQ]float64
	for fw := f; len(fw) >= NQ; fw = fw[NQ:] {
		cell := (*[NQ]float64)(fw[:NQ])
		if bgk {
			collideBGK(&c, cell, omega, gx, gy, gz)
		} else {
			c = *cell
			CollideCell(&c, p, gx, gy, gz)
		}
		cell[0] = c[0]
		cell[1], cell[2] = c[2], c[1]
		cell[3], cell[4] = c[4], c[3]
		cell[5], cell[6] = c[6], c[5]
		cell[7], cell[8] = c[8], c[7]
		cell[9], cell[10] = c[10], c[9]
		cell[11], cell[12] = c[12], c[11]
		cell[13], cell[14] = c[14], c[13]
		cell[15], cell[16] = c[16], c[15]
		cell[17], cell[18] = c[18], c[17]
	}
}

// collideLinked is the odd pass, in ascending cell order: the cells
// between runs through their explicit rows (collideRows), each run
// through its fixed offsets (collideRun).
func collideLinked(f []float64, links *Links, halo []float64, p Params) {
	rows, next := links.rows, 0
	for k := range links.runs {
		r := &links.runs[k]
		rows = collideRows(f, f[next*NQ:int(r.lo)*NQ], rows, halo, p)
		collideRun(f, r, p)
		next = int(r.hi)
	}
	collideRows(f, f[next*NQ:], rows, halo, p)
}

// collideRows is the odd pass over the consecutive cells whose windows
// fw holds, one row of lw each: find each cell's NQ locations through its
// row, gather the cell from them, collide it, and scatter it back to the
// same locations. It returns the rows it did not read.
func collideRows(f, fw []float64, lw []int32, halo []float64, p Params) []int32 {
	gx, gy, gz := p.Force[0], p.Force[1], p.Force[2]
	omega := 1 / p.Tau
	bgk := p.Collision == BGK
	var in, c [NQ]float64
	for len(fw) >= NQ && len(lw) >= NQ {
		own := (*[NQ]float64)(fw[:NQ])
		nb := (*[NQ]int32)(lw[:NQ])
		fw, lw = fw[NQ:], lw[NQ:]
		// Direction pairs are unrolled so the opposite index is a
		// constant, not an Opp load the prover can't bound. Each location
		// is found once, for the load and the store.
		l1 := loc(f, halo, own, nb[1], 1, 2)
		l2 := loc(f, halo, own, nb[2], 2, 1)
		l3 := loc(f, halo, own, nb[3], 3, 4)
		l4 := loc(f, halo, own, nb[4], 4, 3)
		l5 := loc(f, halo, own, nb[5], 5, 6)
		l6 := loc(f, halo, own, nb[6], 6, 5)
		l7 := loc(f, halo, own, nb[7], 7, 8)
		l8 := loc(f, halo, own, nb[8], 8, 7)
		l9 := loc(f, halo, own, nb[9], 9, 10)
		l10 := loc(f, halo, own, nb[10], 10, 9)
		l11 := loc(f, halo, own, nb[11], 11, 12)
		l12 := loc(f, halo, own, nb[12], 12, 11)
		l13 := loc(f, halo, own, nb[13], 13, 14)
		l14 := loc(f, halo, own, nb[14], 14, 13)
		l15 := loc(f, halo, own, nb[15], 15, 16)
		l16 := loc(f, halo, own, nb[16], 16, 15)
		l17 := loc(f, halo, own, nb[17], 17, 18)
		l18 := loc(f, halo, own, nb[18], 18, 17)
		in[0] = own[0]
		in[2], in[1] = *l1, *l2
		in[4], in[3] = *l3, *l4
		in[6], in[5] = *l5, *l6
		in[8], in[7] = *l7, *l8
		in[10], in[9] = *l9, *l10
		in[12], in[11] = *l11, *l12
		in[14], in[13] = *l13, *l14
		in[16], in[15] = *l15, *l16
		in[18], in[17] = *l17, *l18
		if bgk {
			collideBGK(&c, &in, omega, gx, gy, gz)
		} else {
			c = in
			CollideCell(&c, p, gx, gy, gz)
		}
		own[0] = c[0]
		*l1, *l2 = c[1], c[2]
		*l3, *l4 = c[3], c[4]
		*l5, *l6 = c[5], c[6]
		*l7, *l8 = c[7], c[8]
		*l9, *l10 = c[9], c[10]
		*l11, *l12 = c[11], c[12]
		*l13, *l14 = c[13], c[14]
		*l15, *l16 = c[15], c[16]
		*l17, *l18 = c[17], c[18]
	}
	return lw
}

// collideRun is the odd pass over a run. Cell lo+k keeps its value along
// q in slot q of cell lo+k+d[q], so direction q reads and writes one
// window of f, from slot q of cell lo's neighbour along q, that advances
// NQ slots a cell: no row is loaded and no location is tested. The
// windows share one length, m, which the loop compares j against, so no
// access in it carries a bounds check.
func collideRun(f []float64, r *bulkRun, p Params) {
	gx, gy, gz := p.Force[0], p.Force[1], p.Force[2]
	omega := 1 / p.Tau
	bgk := p.Collision == BGK
	var in, c [NQ]float64
	m := int(r.hi-r.lo-1)*NQ + 1
	w0 := f[int(r.lo)*NQ:][:m]
	w1 := f[int(r.lo+r.d[1])*NQ+1:][:m]
	w2 := f[int(r.lo+r.d[2])*NQ+2:][:m]
	w3 := f[int(r.lo+r.d[3])*NQ+3:][:m]
	w4 := f[int(r.lo+r.d[4])*NQ+4:][:m]
	w5 := f[int(r.lo+r.d[5])*NQ+5:][:m]
	w6 := f[int(r.lo+r.d[6])*NQ+6:][:m]
	w7 := f[int(r.lo+r.d[7])*NQ+7:][:m]
	w8 := f[int(r.lo+r.d[8])*NQ+8:][:m]
	w9 := f[int(r.lo+r.d[9])*NQ+9:][:m]
	w10 := f[int(r.lo+r.d[10])*NQ+10:][:m]
	w11 := f[int(r.lo+r.d[11])*NQ+11:][:m]
	w12 := f[int(r.lo+r.d[12])*NQ+12:][:m]
	w13 := f[int(r.lo+r.d[13])*NQ+13:][:m]
	w14 := f[int(r.lo+r.d[14])*NQ+14:][:m]
	w15 := f[int(r.lo+r.d[15])*NQ+15:][:m]
	w16 := f[int(r.lo+r.d[16])*NQ+16:][:m]
	w17 := f[int(r.lo+r.d[17])*NQ+17:][:m]
	w18 := f[int(r.lo+r.d[18])*NQ+18:][:m]
	for j := uint(0); j < uint(m); j += NQ {
		in[0] = w0[j]
		in[2], in[1] = w1[j], w2[j]
		in[4], in[3] = w3[j], w4[j]
		in[6], in[5] = w5[j], w6[j]
		in[8], in[7] = w7[j], w8[j]
		in[10], in[9] = w9[j], w10[j]
		in[12], in[11] = w11[j], w12[j]
		in[14], in[13] = w13[j], w14[j]
		in[16], in[15] = w15[j], w16[j]
		in[18], in[17] = w17[j], w18[j]
		if bgk {
			collideBGK(&c, &in, omega, gx, gy, gz)
		} else {
			c = in
			CollideCell(&c, p, gx, gy, gz)
		}
		w0[j] = c[0]
		w1[j], w2[j] = c[1], c[2]
		w3[j], w4[j] = c[3], c[4]
		w5[j], w6[j] = c[5], c[6]
		w7[j], w8[j] = c[7], c[8]
		w9[j], w10[j] = c[9], c[10]
		w11[j], w12[j] = c[11], c[12]
		w13[j], w14[j] = c[13], c[14]
		w15[j], w16[j] = c[15], c[16]
		w17[j], w18[j] = c[17], c[18]
	}
}

// loc returns loc(i,q) of the cell whose window is own and whose link
// along q is nb: slot q of cell nb, halo slot k for RemoteLink(k), or the
// cell's own opposite slot oq when the link is solid. A negative nb makes
// the first offset a huge uint and solidNeighbor makes the second one, so
// neither address carries a bounds check.
func loc(f, halo []float64, own *[NQ]float64, nb int32, q, oq int) *float64 {
	if off := int(nb)*NQ + q; uint(off) < uint(len(f)) {
		return &f[off]
	} else if k := int(remoteLink - nb); uint(k) < uint(len(halo)) {
		return &halo[k]
	}
	return &own[oq]
}

// load returns cell i of the block's state after steps timesteps: its
// window of f in the natural layout (an AB block's, or an AA block's
// after an even number), gathered through its link row and halo after an
// odd one, and from its planes in an SOA block (planeSlots).
func (b *Block) load(i, steps int) (c [NQ]float64) {
	if b.kernel.Layout == SOA {
		for q, at := range b.planeSlots(i, steps) {
			c[q] = *at
		}
		return c
	}
	own := (*[NQ]float64)(b.f[i*NQ : i*NQ+NQ])
	if b.natural(steps) {
		return *own
	}
	var nb [NQ]int32
	b.links.Row(i, &nb)
	c[0] = own[0]
	for q := 1; q < NQ-1; q += 2 {
		c[q+1] = *loc(b.f, b.halo, own, nb[q], q, q+1)
		c[q] = *loc(b.f, b.halo, own, nb[q+1], q+1, q)
	}
	return c
}

// store overwrites cell i of the block's state after steps timesteps,
// where load reads it.
func (b *Block) store(i, steps int, c *[NQ]float64) {
	if b.kernel.Layout == SOA {
		for q, at := range b.planeSlots(i, steps) {
			*at = c[q]
		}
		return
	}
	own := (*[NQ]float64)(b.f[i*NQ : i*NQ+NQ])
	if b.natural(steps) {
		*own = *c
		return
	}
	var nb [NQ]int32
	b.links.Row(i, &nb)
	own[0] = c[0]
	for q := 1; q < NQ-1; q += 2 {
		*loc(b.f, b.halo, own, nb[q], q, q+1) = c[q+1]
		*loc(b.f, b.halo, own, nb[q+1], q+1, q) = c[q]
	}
}

// natural reports whether the block's state after steps timesteps is in
// the natural layout, each cell's value along q in the cell's own slot q:
// an AB block's always, an AA block's after an even number.
func (b *Block) natural(steps int) bool {
	return steps&1 == 0 || b.kernel.Pattern == AB
}

// planeSlots returns where an SOA block keeps cell i's value along each
// direction after steps timesteps (offsets).
func (b *Block) planeSlots(i, steps int) (at [NQ]*float64) {
	var nb [NQ]int32
	var r, w [NQ]int
	if !b.natural(steps) {
		b.links.Row(i, &nb)
	}
	b.offsets(i, steps, &nb, &r, &w)
	if b.kernel.Pattern == AB {
		r = w
	}
	for q, o := range r {
		at[q] = &b.f[i+o]
	}
	return at
}

// BoundarySite is one inlet or outlet cell of a block.
type BoundarySite struct {
	Cell   int32   // index of the cell within the block
	Outlet bool    // zero-pressure outlet; otherwise a velocity inlet
	InletU float64 // prescribed axial velocity at an inlet, before pulsation
}

// ApplyBoundaries is the second pass of a timestep, and ends it: it
// overrides the streamed distributions at the block's inlet and outlet
// cells with equilibria — the prescribed velocity times the pulsation of
// the step (Waveform.Scale) at unit density for an inlet, the cell's own
// velocity at unit density (zero pressure) for an outlet — and advances
// the step count. It runs after CollideStream's pass of the same step —
// for a rank, after the halo exchange, when every value is in place —
// over the ascending list built once per block. After an even pass a cell
// is read and written through its link row and halo, as the odd pass
// reads it.
func (b *Block) ApplyBoundaries(p Params) {
	scale := p.Pulsatile.Scale(b.steps)
	next := b.steps + 1
	var bc [NQ]float64
	for _, s := range b.bounds {
		i := int(s.Cell)
		if s.Outlet {
			cell := b.load(i, next)
			_, ux, uy, uz := Moments(&cell)
			Equilibrium(1, ux, uy, uz, &bc) // zero-pressure: rho pinned to 1
		} else {
			Equilibrium(1, s.InletU*scale, 0, 0, &bc)
		}
		b.store(i, next, &bc)
	}
	b.steps = next
}

// Steps returns the number of completed timesteps.
func (b *Block) Steps() int { return b.steps }

// Cell returns a copy of the distribution at cell i.
func (b *Block) Cell(i int) [NQ]float64 { return b.load(i, b.steps) }

// SetCell overwrites the distribution at cell i.
func (b *Block) SetCell(i int, c [NQ]float64) { b.store(i, b.steps, &c) }

// Macro returns density and velocity at cell i.
func (b *Block) Macro(i int) (rho, ux, uy, uz float64) {
	cell := b.Cell(i)
	return Moments(&cell)
}

// TotalMass returns the sum of density over the block's cells, in (cell,
// direction) order. In periodic force-driven runs mass is conserved to
// round-off; with open boundaries it approaches a steady value. An AOS
// block in the natural layout holds its state in that order already, and
// the sum runs straight down the array.
func (b *Block) TotalMass() float64 {
	var m float64
	if b.kernel.Layout == AOS && b.natural(b.steps) {
		for _, v := range b.f {
			m += v
		}
		return m
	}
	for i := 0; i < len(b.f)/NQ; i++ {
		for _, v := range b.Cell(i) {
			m += v
		}
	}
	return m
}

// MaxSpeed returns the largest velocity magnitude over the block's cells,
// a cheap stability probe (blow-ups show up as speeds near or above 1).
func (b *Block) MaxSpeed() float64 {
	var vmax float64
	for i := 0; i < len(b.f)/NQ; i++ {
		_, ux, uy, uz := b.Macro(i)
		vmax = math.Max(vmax, math.Sqrt(ux*ux+uy*uy+uz*uz))
	}
	return vmax
}

// Links returns the block's link table. par.NewRunner builds its ranks'
// tables from a Sparse's. Read only.
func (b *Block) Links() *Links { return &b.links }

// Slots returns the block's distribution array and halo, in the layout of
// its step count (CollideStream), for a halo exchange to read and write
// between a step's two passes.
func (b *Block) Slots() (f, halo []float64) { return b.f, b.halo }
