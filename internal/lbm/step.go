//lint:hot
package lbm

// remoteLink is the first link-row entry below solidNeighbor. A link row
// holds, for each direction q of one cell, where the cell's value along q
// is kept between steps: the index of the cell at x + c_q within the
// block, solidNeighbor (-1), or RemoteLink(k) for slot k of the block's
// halo (the cell at x + c_q belongs to another rank). Entry 0 is the cell
// itself.
const remoteLink = int32(-2)

// RemoteLink is the link-row entry that keeps a value in slot k of the
// halo handed to CollideStream.
func RemoteLink(k int) int32 { return remoteLink - int32(k) }

// CollideStream is the step body of the HARVEY engine, the one pass over
// a block of cells both lbm.Sparse and par.Runner make each timestep. It
// runs Bailey's AA pattern on the one array f, in place, and step, the
// index of the timestep, picks the pass:
//
//   - Even step, f in the natural layout (slot i*NQ+q holds cell i's
//     value along q): collide each cell and write c[q] to the cell's own
//     opposite slot, i*NQ+opp(q). No link row is read.
//   - Odd step, f in the swapped layout the even pass leaves: for each
//     direction q, loc(i,q) is the slot a push along q would write — slot
//     q of the cell at x + c_q, the cell's own opposite slot when the link
//     is solid, halo[k] when it is RemoteLink(k). The pass reads the
//     cell's value along opp(q) from loc(i,q), collides, and writes c[q]
//     back to loc(i,q). It ends in the natural layout.
//
// Each cell touches only its own NQ locations, so both passes are in
// place, and a cell's value along q after a step is the value push
// streaming with halfway bounce-back leaves there, bit for bit. On an odd
// step halo[k] holds the value that arrived from the other rank and
// receives the value to send; Sparse passes its own link table and no
// halo.
//
// The loops are shaped for the compiler's prover (gated by cmd/lint
// -perfbudget): NQ-wide windows advance over the arrays, and every
// scattered load and store is guarded by one unsigned compare that is
// range test and bounds proof at once.
func CollideStream(f []float64, links []int32, halo []float64, p Params, step int) {
	if step&1 == 0 {
		collideSwap(f, p)
	} else {
		collideLinked(f, links, halo, p)
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

// collideLinked is the odd pass: find each cell's NQ locations through
// its link row, gather the cell from them, collide it, and scatter it
// back to the same locations.
func collideLinked(f []float64, links []int32, halo []float64, p Params) {
	gx, gy, gz := p.Force[0], p.Force[1], p.Force[2]
	omega := 1 / p.Tau
	bgk := p.Collision == BGK
	var in, c [NQ]float64
	fw, lw := f, links
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

// LoadCell returns cell i of a block whose state has made steps
// timesteps: its window of f after an even number (the natural layout),
// gathered through its link row and halo after an odd one.
func LoadCell(f []float64, links []int32, halo []float64, i, steps int) (c [NQ]float64) {
	own := (*[NQ]float64)(f[i*NQ : i*NQ+NQ])
	if steps&1 == 0 {
		return *own
	}
	nb := (*[NQ]int32)(links[i*NQ : i*NQ+NQ])
	c[0] = own[0]
	for q := 1; q < NQ-1; q += 2 {
		c[q+1] = *loc(f, halo, own, nb[q], q, q+1)
		c[q] = *loc(f, halo, own, nb[q+1], q+1, q)
	}
	return c
}

// StoreCell overwrites cell i of a block whose state has made steps
// timesteps, where LoadCell reads it.
func StoreCell(f []float64, links []int32, halo []float64, i, steps int, c *[NQ]float64) {
	own := (*[NQ]float64)(f[i*NQ : i*NQ+NQ])
	if steps&1 == 0 {
		*own = *c
		return
	}
	nb := (*[NQ]int32)(links[i*NQ : i*NQ+NQ])
	own[0] = c[0]
	for q := 1; q < NQ-1; q += 2 {
		*loc(f, halo, own, nb[q], q, q+1) = c[q+1]
		*loc(f, halo, own, nb[q+1], q+1, q) = c[q]
	}
}

// BoundarySite is one inlet or outlet cell of a block.
type BoundarySite struct {
	Cell   int32   // index of the cell within the block
	Outlet bool    // zero-pressure outlet; otherwise a velocity inlet
	InletU float64 // prescribed axial velocity at an inlet, before pulsation
}

// ApplyBoundaries overrides the streamed distributions at a block's inlet
// and outlet cells with equilibria: the prescribed velocity times the
// pulsation of the step (Waveform.Scale) at unit density for an inlet,
// the cell's own velocity at unit density (zero pressure) for an outlet.
// It runs after CollideStream's pass of the same step — for a rank, after
// the halo exchange, when every value is in place — over the ascending
// list built once per engine. After an even pass a cell is read and
// written through its link row and halo, as the odd pass reads it.
func ApplyBoundaries(f []float64, links []int32, halo []float64, sites []BoundarySite, p Params, step int) {
	scale := p.Pulsatile.Scale(step)
	var bc [NQ]float64
	for _, b := range sites {
		i := int(b.Cell)
		if b.Outlet {
			cell := LoadCell(f, links, halo, i, step+1)
			_, ux, uy, uz := Moments(&cell)
			Equilibrium(1, ux, uy, uz, &bc) // zero-pressure: rho pinned to 1
		} else {
			Equilibrium(1, b.InletU*scale, 0, 0, &bc)
		}
		StoreCell(f, links, halo, i, step+1, &bc)
	}
}
