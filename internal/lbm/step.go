//lint:hot
package lbm

// remoteLink is the first link-row entry below solidNeighbor. A link row
// holds, for each direction q of one cell, where the cell's post-collision
// value goes: the index of the cell at x + c_q within the block,
// solidNeighbor (-1), or RemoteLink(k) for slot k of the block's send
// space (the cell at x + c_q belongs to another rank).
const remoteLink = int32(-2)

// RemoteLink is the link-row entry that sends a value to slot k of the
// send space handed to CollideStream.
func RemoteLink(k int) int32 { return remoteLink - int32(k) }

// CollideStream is the step body of the HARVEY engine, the one pass over
// a block of cells both lbm.Sparse and par.Runner make each timestep:
// load a cell from f, collide it (the unrolled BGK, or CollideCell for
// TRT), and push every post-collision value one link along its own
// direction into fnew. links is the block's NQ-wide rows; a value whose
// link is solid lands in the cell's own opposite slot (halfway
// bounce-back: the value pull streaming would have read there), one whose
// link leaves the block lands in send. Each slot of fnew that a link of
// the block points at, and each slot of send, is written exactly once; f
// is only read. Sparse passes Lattice.neigh and no send space.
//
// The loop is shaped for the compiler's prover as Sparse.Step always was
// (gated by cmd/lint -perfbudget): NQ-wide windows advance over the
// arrays, and every scattered store is guarded by one unsigned compare
// that is range test and bounds proof at once.
func CollideStream(f, fnew []float64, links []int32, send []float64, p Params) {
	gx, gy, gz := p.Force[0], p.Force[1], p.Force[2]
	omega := 1 / p.Tau
	bgk := p.Collision == BGK
	var c [NQ]float64
	fw, nw, lw := f, fnew, links
	for len(fw) >= NQ && len(nw) >= NQ && len(lw) >= NQ {
		in := (*[NQ]float64)(fw[:NQ])
		out := (*[NQ]float64)(nw[:NQ])
		nb := (*[NQ]int32)(lw[:NQ])
		fw, nw, lw = fw[NQ:], nw[NQ:], lw[NQ:]
		if bgk {
			collideBGK(&c, in, omega, gx, gy, gz)
		} else {
			c = *in
			CollideCell(&c, p, gx, gy, gz)
		}
		// Direction pairs are unrolled so the opposite index is a
		// constant, not an Opp load the prover can't bound.
		out[0] = c[0]
		push(fnew, send, out, c[1], nb[1], 1, 2)
		push(fnew, send, out, c[2], nb[2], 2, 1)
		push(fnew, send, out, c[3], nb[3], 3, 4)
		push(fnew, send, out, c[4], nb[4], 4, 3)
		push(fnew, send, out, c[5], nb[5], 5, 6)
		push(fnew, send, out, c[6], nb[6], 6, 5)
		push(fnew, send, out, c[7], nb[7], 7, 8)
		push(fnew, send, out, c[8], nb[8], 8, 7)
		push(fnew, send, out, c[9], nb[9], 9, 10)
		push(fnew, send, out, c[10], nb[10], 10, 9)
		push(fnew, send, out, c[11], nb[11], 11, 12)
		push(fnew, send, out, c[12], nb[12], 12, 11)
		push(fnew, send, out, c[13], nb[13], 13, 14)
		push(fnew, send, out, c[14], nb[14], 14, 13)
		push(fnew, send, out, c[15], nb[15], 15, 16)
		push(fnew, send, out, c[16], nb[16], 16, 15)
		push(fnew, send, out, c[17], nb[17], 17, 18)
		push(fnew, send, out, c[18], nb[18], 18, 17)
	}
}

// push streams one post-collision value v along direction q: into slot q
// of cell nb, into the send space when nb is a remote link, or back into
// the local opposite slot oq when the link is solid. A negative nb makes
// the first offset a huge uint and solidNeighbor makes the second one, so
// neither store carries a bounds check.
func push(fnew, send []float64, out *[NQ]float64, v float64, nb int32, q, oq int) {
	if off := int(nb)*NQ + q; uint(off) < uint(len(fnew)) {
		fnew[off] = v
	} else if k := int(remoteLink - nb); uint(k) < uint(len(send)) {
		send[k] = v
	} else {
		out[oq] = v
	}
}

// BoundarySite is one inlet or outlet cell of a block.
type BoundarySite struct {
	Cell   int32   // index of the cell within the block
	Outlet bool    // zero-pressure outlet; otherwise a velocity inlet
	InletU float64 // prescribed axial velocity at an inlet, before pulsation
}

// ApplyBoundaries overrides the streamed distributions at a block's inlet
// and outlet cells with equilibria: the prescribed velocity times scale
// (Waveform.Scale of the step) at unit density for an inlet, the cell's
// own velocity at unit density (zero pressure) for an outlet. It runs
// after every slot of fnew has been streamed — for a rank, after the
// halo exchange — over the ascending list built once per engine.
func ApplyBoundaries(fnew []float64, sites []BoundarySite, scale float64) {
	var bc [NQ]float64
	for _, b := range sites {
		// The two guards are the bounds proof of the cell's window.
		off := int(b.Cell) * NQ
		if uint(off) >= uint(len(fnew)) {
			continue
		}
		w := fnew[off:]
		if len(w) < NQ {
			continue
		}
		cell := (*[NQ]float64)(w[:NQ])
		if b.Outlet {
			_, ux, uy, uz := Moments(cell)
			Equilibrium(1, ux, uy, uz, &bc) // zero-pressure: rho pinned to 1
		} else {
			Equilibrium(1, b.InletU*scale, 0, 0, &bc)
		}
		*cell = bc
	}
}
