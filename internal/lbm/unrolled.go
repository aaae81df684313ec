//lint:hot
package lbm

// Hand-unrolled SOA kernels. The paper's proxy-app figures distinguish SOA
// kernels "with kernel internal for loops unrolled" from rolled ones
// (Figures 4 and 8); unrolling removes the per-direction loop and index
// table from the hot path. The direction constants below follow the
// package's velocity table:
//
//	q : ( cx, cy, cz)        opposite
//	0 : (  0,  0,  0)        0
//	1 : (  1,  0,  0)        2
//	3 : (  0,  1,  0)        4
//	5 : (  0,  0,  1)        6
//	7 : (  1,  1,  0)        8
//	9 : (  1, -1,  0)        10
//	11: (  1,  0,  1)        12
//	13: (  1,  0, -1)        14
//	15: (  0,  1,  1)        16
//	17: (  0,  1, -1)        18
//
// The kernels are also shaped for bounds-check elimination (gated by
// cmd/lint -perfbudget): every plane is re-sliced to the same length
// value n, the site index is guarded once per node by an unsigned
// compare against n, and neighbor indices are guarded by the fluid-mask
// test itself, so the per-node loop bodies carry no bounds checks.

// plane returns the direction-q view of the SOA array a, re-sliced so
// its length is the same value n the kernels guard site indices against
// — that shared length is what lets the prover drop the checks.
func plane(a []float64, q, n int) []float64 {
	return a[q*n:][:n:n]
}

// stepABUnrolledRange is the AB kernel with the direction loop unrolled:
// pull-stream + collide from f into g using explicit row arithmetic.
func (p *Proxy) stepABUnrolledRange(zLo, zHi int) {
	omega := 1 / p.Params.Tau
	gx, gy, gz := p.Params.Force[0], p.Params.Force[1], p.Params.Force[2]
	n := p.nsites
	nx, ny := p.nx, p.ny
	fluid := p.fluid[:n]
	xm1, xp1 := p.xm1[:nx], p.xp1[:nx]
	fa, ga := p.f, p.g
	f0, f1, f2 := plane(fa, 0, n), plane(fa, 1, n), plane(fa, 2, n)
	f3, f4, f5 := plane(fa, 3, n), plane(fa, 4, n), plane(fa, 5, n)
	f6, f7, f8 := plane(fa, 6, n), plane(fa, 7, n), plane(fa, 8, n)
	f9, f10, f11 := plane(fa, 9, n), plane(fa, 10, n), plane(fa, 11, n)
	f12, f13, f14 := plane(fa, 12, n), plane(fa, 13, n), plane(fa, 14, n)
	f15, f16, f17 := plane(fa, 15, n), plane(fa, 16, n), plane(fa, 17, n)
	f18 := plane(fa, 18, n)
	g0, g1, g2 := plane(ga, 0, n), plane(ga, 1, n), plane(ga, 2, n)
	g3, g4, g5 := plane(ga, 3, n), plane(ga, 4, n), plane(ga, 5, n)
	g6, g7, g8 := plane(ga, 6, n), plane(ga, 7, n), plane(ga, 8, n)
	g9, g10, g11 := plane(ga, 9, n), plane(ga, 10, n), plane(ga, 11, n)
	g12, g13, g14 := plane(ga, 12, n), plane(ga, 13, n), plane(ga, 14, n)
	g15, g16, g17 := plane(ga, 15, n), plane(ga, 16, n), plane(ga, 17, n)
	g18 := plane(ga, 18, n)
	var c [NQ]float64
	for z := zLo; z < zHi; z++ {
		for y := 1; y < ny-1; y++ {
			row := (z*ny + y) * nx
			rowYM := (z*ny + y - 1) * nx
			rowYP := (z*ny + y + 1) * nx
			rowZM := ((z-1)*ny + y) * nx
			rowZP := ((z+1)*ny + y) * nx
			rowYMZM := ((z-1)*ny + y - 1) * nx
			rowYMZP := ((z+1)*ny + y - 1) * nx
			rowYPZM := ((z-1)*ny + y + 1) * nx
			rowYPZP := ((z+1)*ny + y + 1) * nx
			for x := 0; x < nx; x++ {
				site := row + x
				if uint(site) >= uint(n) || !fluid[site] {
					continue
				}
				xm, xp := xm1[x], xp1[x]

				c[0] = f0[site]
				pull(&c, f1, f2, fluid, 1, row+xm, site)
				pull(&c, f2, f1, fluid, 2, row+xp, site)
				pull(&c, f3, f4, fluid, 3, rowYM+x, site)
				pull(&c, f4, f3, fluid, 4, rowYP+x, site)
				pull(&c, f5, f6, fluid, 5, rowZM+x, site)
				pull(&c, f6, f5, fluid, 6, rowZP+x, site)
				pull(&c, f7, f8, fluid, 7, rowYM+xm, site)
				pull(&c, f8, f7, fluid, 8, rowYP+xp, site)
				pull(&c, f9, f10, fluid, 9, rowYP+xm, site)
				pull(&c, f10, f9, fluid, 10, rowYM+xp, site)
				pull(&c, f11, f12, fluid, 11, rowZM+xm, site)
				pull(&c, f12, f11, fluid, 12, rowZP+xp, site)
				pull(&c, f13, f14, fluid, 13, rowZP+xm, site)
				pull(&c, f14, f13, fluid, 14, rowZM+xp, site)
				pull(&c, f15, f16, fluid, 15, rowYMZM+x, site)
				pull(&c, f16, f15, fluid, 16, rowYPZP+x, site)
				pull(&c, f17, f18, fluid, 17, rowYMZP+x, site)
				pull(&c, f18, f17, fluid, 18, rowYPZM+x, site)

				collideBGK(&c, &c, omega, gx, gy, gz)

				g0[site] = c[0]
				g1[site] = c[1]
				g2[site] = c[2]
				g3[site] = c[3]
				g4[site] = c[4]
				g5[site] = c[5]
				g6[site] = c[6]
				g7[site] = c[7]
				g8[site] = c[8]
				g9[site] = c[9]
				g10[site] = c[10]
				g11[site] = c[11]
				g12[site] = c[12]
				g13[site] = c[13]
				g14[site] = c[14]
				g15[site] = c[15]
				g16[site] = c[16]
				g17[site] = c[17]
				g18[site] = c[18]
			}
		}
	}
}

// pull loads direction q from the upstream site into c, or bounces back
// from the local cell's opposite slot when the upstream site is solid.
// fq is the plane of q, fopp the plane of q's opposite; the unsigned
// compare folds into the fluid test and doubles as the bounds proof.
func pull(c *[NQ]float64, fq, fopp []float64, fluid []bool, q, up, site int) {
	if uint(up) < uint(len(fluid)) && fluid[up] {
		c[q] = fq[up]
	} else {
		c[q] = fopp[site]
	}
}

// stepAAUnrolledRange is the AA kernel unrolled. Even steps are in-place
// collide-and-swap; odd steps gather from neighbors' opposite slots and
// scatter to neighbors' normal slots, exactly as the rolled stepAARange.
func (p *Proxy) stepAAUnrolledRange(zLo, zHi int) {
	omega := 1 / p.Params.Tau
	gx, gy, gz := p.Params.Force[0], p.Params.Force[1], p.Params.Force[2]
	n := p.nsites
	nx, ny := p.nx, p.ny
	fluid := p.fluid[:n]
	xm1, xp1 := p.xm1[:nx], p.xp1[:nx]
	fa := p.f
	f0, f1, f2 := plane(fa, 0, n), plane(fa, 1, n), plane(fa, 2, n)
	f3, f4, f5 := plane(fa, 3, n), plane(fa, 4, n), plane(fa, 5, n)
	f6, f7, f8 := plane(fa, 6, n), plane(fa, 7, n), plane(fa, 8, n)
	f9, f10, f11 := plane(fa, 9, n), plane(fa, 10, n), plane(fa, 11, n)
	f12, f13, f14 := plane(fa, 12, n), plane(fa, 13, n), plane(fa, 14, n)
	f15, f16, f17 := plane(fa, 15, n), plane(fa, 16, n), plane(fa, 17, n)
	f18 := plane(fa, 18, n)
	even := p.steps%2 == 0
	var c [NQ]float64
	for z := zLo; z < zHi; z++ {
		for y := 1; y < ny-1; y++ {
			row := (z*ny + y) * nx
			rowYM := (z*ny + y - 1) * nx
			rowYP := (z*ny + y + 1) * nx
			rowZM := ((z-1)*ny + y) * nx
			rowZP := ((z+1)*ny + y) * nx
			rowYMZM := ((z-1)*ny + y - 1) * nx
			rowYMZP := ((z+1)*ny + y - 1) * nx
			rowYPZM := ((z-1)*ny + y + 1) * nx
			rowYPZP := ((z+1)*ny + y + 1) * nx
			for x := 0; x < nx; x++ {
				site := row + x
				if uint(site) >= uint(n) || !fluid[site] {
					continue
				}
				if even {
					c[0] = f0[site]
					c[1] = f1[site]
					c[2] = f2[site]
					c[3] = f3[site]
					c[4] = f4[site]
					c[5] = f5[site]
					c[6] = f6[site]
					c[7] = f7[site]
					c[8] = f8[site]
					c[9] = f9[site]
					c[10] = f10[site]
					c[11] = f11[site]
					c[12] = f12[site]
					c[13] = f13[site]
					c[14] = f14[site]
					c[15] = f15[site]
					c[16] = f16[site]
					c[17] = f17[site]
					c[18] = f18[site]
					collideBGK(&c, &c, omega, gx, gy, gz)
					f0[site] = c[0]
					f2[site] = c[1]
					f1[site] = c[2]
					f4[site] = c[3]
					f3[site] = c[4]
					f6[site] = c[5]
					f5[site] = c[6]
					f8[site] = c[7]
					f7[site] = c[8]
					f10[site] = c[9]
					f9[site] = c[10]
					f12[site] = c[11]
					f11[site] = c[12]
					f14[site] = c[13]
					f13[site] = c[14]
					f16[site] = c[15]
					f15[site] = c[16]
					f18[site] = c[17]
					f17[site] = c[18]
					continue
				}
				xm, xp := xm1[x], xp1[x]
				// Gather: f*_q(x-c_q) lives in slot opp(q) upstream, or
				// slot q locally after an even-step bounce.
				c[0] = f0[site]
				aaGather(&c, f2, f1, fluid, 1, row+xm, site)
				aaGather(&c, f1, f2, fluid, 2, row+xp, site)
				aaGather(&c, f4, f3, fluid, 3, rowYM+x, site)
				aaGather(&c, f3, f4, fluid, 4, rowYP+x, site)
				aaGather(&c, f6, f5, fluid, 5, rowZM+x, site)
				aaGather(&c, f5, f6, fluid, 6, rowZP+x, site)
				aaGather(&c, f8, f7, fluid, 7, rowYM+xm, site)
				aaGather(&c, f7, f8, fluid, 8, rowYP+xp, site)
				aaGather(&c, f10, f9, fluid, 9, rowYP+xm, site)
				aaGather(&c, f9, f10, fluid, 10, rowYM+xp, site)
				aaGather(&c, f12, f11, fluid, 11, rowZM+xm, site)
				aaGather(&c, f11, f12, fluid, 12, rowZP+xp, site)
				aaGather(&c, f14, f13, fluid, 13, rowZP+xm, site)
				aaGather(&c, f13, f14, fluid, 14, rowZM+xp, site)
				aaGather(&c, f16, f15, fluid, 15, rowYMZM+x, site)
				aaGather(&c, f15, f16, fluid, 16, rowYPZP+x, site)
				aaGather(&c, f18, f17, fluid, 17, rowYMZP+x, site)
				aaGather(&c, f17, f18, fluid, 18, rowYPZM+x, site)

				collideBGK(&c, &c, omega, gx, gy, gz)

				// Scatter downstream (push), bouncing into the local
				// opposite slot at solid links.
				f0[site] = c[0]
				aaScatter(&c, f1, f2, fluid, 1, row+xp, site)
				aaScatter(&c, f2, f1, fluid, 2, row+xm, site)
				aaScatter(&c, f3, f4, fluid, 3, rowYP+x, site)
				aaScatter(&c, f4, f3, fluid, 4, rowYM+x, site)
				aaScatter(&c, f5, f6, fluid, 5, rowZP+x, site)
				aaScatter(&c, f6, f5, fluid, 6, rowZM+x, site)
				aaScatter(&c, f7, f8, fluid, 7, rowYP+xp, site)
				aaScatter(&c, f8, f7, fluid, 8, rowYM+xm, site)
				aaScatter(&c, f9, f10, fluid, 9, rowYM+xp, site)
				aaScatter(&c, f10, f9, fluid, 10, rowYP+xm, site)
				aaScatter(&c, f11, f12, fluid, 11, rowZP+xp, site)
				aaScatter(&c, f12, f11, fluid, 12, rowZM+xm, site)
				aaScatter(&c, f13, f14, fluid, 13, rowZM+xp, site)
				aaScatter(&c, f14, f13, fluid, 14, rowZP+xm, site)
				aaScatter(&c, f15, f16, fluid, 15, rowYPZP+x, site)
				aaScatter(&c, f16, f15, fluid, 16, rowYMZM+x, site)
				aaScatter(&c, f17, f18, fluid, 17, rowYPZM+x, site)
				aaScatter(&c, f18, f17, fluid, 18, rowYMZP+x, site)
			}
		}
	}
}

// aaGather reads direction q during an AA odd step: from the opposite
// plane fopp upstream, or the local slot in q's own plane fq after an
// even-step bounce. The unsigned compare folds into the fluid test and
// doubles as the bounds proof.
func aaGather(c *[NQ]float64, fopp, fq []float64, fluid []bool, q, up, site int) {
	if uint(up) < uint(len(fluid)) && fluid[up] {
		c[q] = fopp[up]
	} else {
		c[q] = fq[site]
	}
}

// aaScatter writes direction q during an AA odd step: to q's own plane
// fq downstream, or bounced into the opposite plane fopp locally.
func aaScatter(c *[NQ]float64, fq, fopp []float64, fluid []bool, q, down, site int) {
	if uint(down) < uint(len(fluid)) && fluid[down] {
		fq[down] = c[q]
	} else {
		fopp[site] = c[q]
	}
}
