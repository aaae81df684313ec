//lint:hot
package lbm

import "fmt"

// CollisionOp selects the collision operator.
type CollisionOp int

// Available collision operators.
const (
	// BGK is the single-relaxation-time operator the paper's HARVEY
	// configuration uses.
	BGK CollisionOp = iota
	// TRT is the two-relaxation-time operator: the antisymmetric moments
	// relax at a rate tied to tau through the "magic" parameter
	// Lambda = 1/4, which places the bounce-back wall exactly halfway
	// between nodes and improves accuracy and stability at low viscosity.
	TRT
)

// String names the operator.
func (c CollisionOp) String() string {
	if c == TRT {
		return "TRT"
	}
	return "BGK"
}

// trtMagic is the TRT "magic" combination Lambda = lambda_e * lambda_o
// fixing the wall location; 1/4 is the standard choice.
const trtMagic = 0.25

// CollideCell applies the configured collision operator plus first-order
// forcing to one cell, in place. It is the definition of the collision
// arithmetic: CollideStream, the step body of the serial engine and of
// every rank of the parallel runner, calls it for TRT and calls
// collideBGK, the same BGK operations unrolled, otherwise.
func CollideCell(cell *[NQ]float64, p Params, gx, gy, gz float64) {
	rho, ux, uy, uz := Moments(cell)
	var feq [NQ]float64
	Equilibrium(rho, ux, uy, uz, &feq)
	switch p.Collision {
	case TRT:
		omegaP := 1 / p.Tau
		// lambda_o from the magic relation: Lambda = (tau-1/2)(tauM-1/2).
		tauM := trtMagic/(p.Tau-0.5) + 0.5
		omegaM := 1 / tauM
		// Rest direction has no antisymmetric part.
		cell[0] -= omegaP * (cell[0] - feq[0])
		for q := 1; q < NQ; q++ {
			// The o >= NQ arm never fires (Opp is a permutation); it is
			// the bounds proof for the cell[o] accesses below.
			o := Opp[q]
			if o < q || o >= NQ {
				continue // each pair handled once
			}
			fp := 0.5 * (cell[q] + cell[o])
			fm := 0.5 * (cell[q] - cell[o])
			ep := 0.5 * (feq[q] + feq[o])
			em := 0.5 * (feq[q] - feq[o])
			dp := omegaP * (fp - ep)
			dm := omegaM * (fm - em)
			cell[q] -= dp + dm
			cell[o] -= dp - dm
		}
	default: // BGK
		omega := 1 / p.Tau
		for q := 0; q < NQ; q++ {
			cell[q] -= omega * (cell[q] - feq[q])
		}
	}
	//lint:ignore floateq exact zero skips the force term entirely; forces are configured, not computed
	if gx != 0 || gy != 0 || gz != 0 {
		for q := 0; q < NQ; q++ {
			cell[q] += 3 * W[q] * (float64(Cx[q])*gx + float64(Cy[q])*gy + float64(Cz[q])*gz)
		}
	}
}

// collideBGK is CollideCell's BGK arm with the direction loops of Moments,
// Equilibrium, the relaxation and the forcing unrolled: the same
// operations on the same operands in the same order, so the result is
// CollideCell's bit for bit (no step of either is contracted into a fused
// multiply-add on amd64). Only the rolled loops' terms with a zero lattice
// component are gone: each adds ±0 to a sum that is never −0, which
// changes nothing, except that a velocity or forcing sum may come out as
// −0 where the rolled loop has +0. Nothing reads the sign of a zero
// velocity; the sign of a zero forcing term shows only in a population
// that is −0 after relaxation, which takes a −0 population at zero
// density — not a state of a fluid cell.
func collideBGK(d, c *[NQ]float64, omega, gx, gy, gz float64) {
	// The leading 0 is the rolled loop's accumulator: it makes the sum
	// of an all-(−0) cell +0.
	rho := 0 + c[0] + c[1] + c[2] + c[3] + c[4] + c[5] + c[6] + c[7] + c[8] + c[9] +
		c[10] + c[11] + c[12] + c[13] + c[14] + c[15] + c[16] + c[17] + c[18]
	ux := c[1] - c[2] + c[7] - c[8] + c[9] - c[10] + c[11] - c[12] + c[13] - c[14]
	uy := c[3] - c[4] + c[7] - c[8] - c[9] + c[10] + c[15] - c[16] + c[17] - c[18]
	uz := c[5] - c[6] + c[11] - c[12] - c[13] + c[14] + c[15] - c[16] - c[17] + c[18]
	//lint:ignore floateq exact-zero guard before division, as in Moments
	if rho != 0 {
		// Division, not a reciprocal multiply: Moments divides.
		ux /= rho
		uy /= rho
		uz /= rho
	}
	usq := 1.5 * (ux*ux + uy*uy + uz*uz)

	// W is read, not spelled as constants, so that 3*wf below is the
	// rolled force loop's 3*W[q], a float64 product rounded at run time,
	// not an untyped constant rounded once from the exact 1/6.
	wf, we := W[1], W[7]
	r0, rf, re := W[0]*rho, wf*rho, we*rho

	// Rest, then the face pairs (1,2)=±x, (3,4)=±y, (5,6)=±z, then the
	// edge pairs; a pair shares cu up to sign.
	d[0] = c[0] - omega*(c[0]-r0*(1-usq))
	cu := 3 * ux
	d[1] = c[1] - omega*(c[1]-rf*(1+cu+0.5*cu*cu-usq))
	d[2] = c[2] - omega*(c[2]-rf*(1-cu+0.5*cu*cu-usq))
	cu = 3 * uy
	d[3] = c[3] - omega*(c[3]-rf*(1+cu+0.5*cu*cu-usq))
	d[4] = c[4] - omega*(c[4]-rf*(1-cu+0.5*cu*cu-usq))
	cu = 3 * uz
	d[5] = c[5] - omega*(c[5]-rf*(1+cu+0.5*cu*cu-usq))
	d[6] = c[6] - omega*(c[6]-rf*(1-cu+0.5*cu*cu-usq))
	cu = 3 * (ux + uy)
	d[7] = c[7] - omega*(c[7]-re*(1+cu+0.5*cu*cu-usq))
	d[8] = c[8] - omega*(c[8]-re*(1-cu+0.5*cu*cu-usq))
	cu = 3 * (ux - uy)
	d[9] = c[9] - omega*(c[9]-re*(1+cu+0.5*cu*cu-usq))
	d[10] = c[10] - omega*(c[10]-re*(1-cu+0.5*cu*cu-usq))
	cu = 3 * (ux + uz)
	d[11] = c[11] - omega*(c[11]-re*(1+cu+0.5*cu*cu-usq))
	d[12] = c[12] - omega*(c[12]-re*(1-cu+0.5*cu*cu-usq))
	cu = 3 * (ux - uz)
	d[13] = c[13] - omega*(c[13]-re*(1+cu+0.5*cu*cu-usq))
	d[14] = c[14] - omega*(c[14]-re*(1-cu+0.5*cu*cu-usq))
	cu = 3 * (uy + uz)
	d[15] = c[15] - omega*(c[15]-re*(1+cu+0.5*cu*cu-usq))
	d[16] = c[16] - omega*(c[16]-re*(1-cu+0.5*cu*cu-usq))
	cu = 3 * (uy - uz)
	d[17] = c[17] - omega*(c[17]-re*(1+cu+0.5*cu*cu-usq))
	d[18] = c[18] - omega*(c[18]-re*(1-cu+0.5*cu*cu-usq))

	//lint:ignore floateq exact zero skips the force term entirely; forces are configured, not computed
	if gx != 0 || gy != 0 || gz != 0 {
		f3, e3 := 3*wf, 3*we
		t := f3 * gx
		d[1] += t
		d[2] -= t
		t = f3 * gy
		d[3] += t
		d[4] -= t
		t = f3 * gz
		d[5] += t
		d[6] -= t
		t = e3 * (gx + gy)
		d[7] += t
		d[8] -= t
		t = e3 * (gx - gy)
		d[9] += t
		d[10] -= t
		t = e3 * (gx + gz)
		d[11] += t
		d[12] -= t
		t = e3 * (gx - gz)
		d[13] += t
		d[14] -= t
		t = e3 * (gy + gz)
		d[15] += t
		d[16] -= t
		t = e3 * (gy - gz)
		d[17] += t
		d[18] -= t
	}
}

// validateCollision extends Params.Validate for the operator choice.
func validateCollision(p Params) error {
	switch p.Collision {
	case BGK, TRT:
		return nil
	default:
		return fmt.Errorf("lbm: unknown collision operator %d", int(p.Collision))
	}
}
