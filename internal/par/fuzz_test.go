package par

import (
	"fmt"
	"testing"

	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
)

// FuzzRunnerMatchesSerial draws a small vessel — a cylinder or a stenosis,
// open or periodic — a rank count from 1 to 8, 0 to 9 steps split over two
// Run calls, BGK or TRT, and a body force or none, and holds par.Runner,
// built from the lattice (New) and from the engine (NewRunner), to
// lbm.Sparse bit for bit on every cell, TotalMass and MaxSpeed.
func FuzzRunnerMatchesSerial(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint8(2), uint8(9), uint8(4), uint8(0))
	f.Add(uint8(1), uint8(9), uint8(3), uint8(7), uint8(3), uint8(1|2))
	f.Add(uint8(2), uint8(10), uint8(5), uint8(8), uint8(8), uint8(4))
	f.Add(uint8(3), uint8(12), uint8(7), uint8(5), uint8(1), uint8(1|2|4))
	f.Fuzz(func(t *testing.T, shape, nx, ranks, steps, split, flags uint8) {
		n := 8 + int(nx)%5
		var dom *geometry.Domain
		var err error
		if shape%2 == 0 {
			dom, err = geometry.Cylinder(n, 2.5+float64(shape%4)/4)
		} else {
			dom, err = geometry.StenosedCylinder(n, 3, 0.2+0.1*float64(shape%5), 1.5)
		}
		if err != nil {
			t.Fatal(err)
		}
		p := lbm.Params{Tau: 0.8, UMax: 0.02}
		if flags&1 != 0 {
			p.Collision = lbm.TRT
		}
		if flags&2 != 0 {
			p.Force = [3]float64{1e-5, -2e-6, 3e-6}
		}
		if flags&4 != 0 {
			p.PeriodicX, p.UMax = true, 0
		}
		serial, err := lbm.NewSparse(dom, p)
		if err != nil {
			t.Fatal(err)
		}
		part, err := decomp.RCB(serial, 1+int(ranks)%8, lbm.HarveyAccess())
		if err != nil {
			t.Fatal(err)
		}
		runners := buildBoth(t, serial, part)
		total := int(steps) % 10
		first := int(split) % (total + 1)
		serial.Run(total)
		for k, runner := range runners {
			runner.Run(first)
			runner.Run(total - first)
			sameBits(t, fmt.Sprintf("runner %d, %d ranks, %d+%d steps", k, part.NTasks, first, total-first), serial, runner)
		}
	})
}

// FuzzLinksMatchLinkRow draws a small vessel — a cylinder or a stenosis,
// open or periodic — and an RCB of 1 to 8 ranks, and holds every rank's
// link table, in a runner built either way, to the serial lattice: entry q of each cell's Links.Row is
// what the site's Lattice.LinkRow says through the owners and localOf —
// -1 for a solid link, the local index of a neighbour the rank owns, and
// for another rank's neighbour a halo slot whose edge leaves from the
// cell's slot opp(q) for that rank and arrives at the neighbour's slot q.
func FuzzLinksMatchLinkRow(f *testing.F) {
	f.Add(uint8(0), uint8(3), false, uint8(2))
	f.Add(uint8(1), uint8(4), true, uint8(5))
	f.Add(uint8(2), uint8(0), true, uint8(7))
	f.Add(uint8(3), uint8(9), false, uint8(0))
	f.Fuzz(func(t *testing.T, shape, scale uint8, periodic bool, ranks uint8) {
		n := 8 + int(scale)%9
		var dom *geometry.Domain
		var err error
		if shape%2 == 0 {
			dom, err = geometry.Cylinder(n, 2.5+float64(scale%5)/2)
		} else {
			dom, err = geometry.StenosedCylinder(n, 3+float64(scale%3)/2, 0.2+0.1*float64(shape%5), 1.5)
		}
		if err != nil {
			t.Fatal(err)
		}
		p := lbm.Params{Tau: 0.8, UMax: 0.02}
		if periodic {
			p.PeriodicX, p.UMax = true, 0
		}
		serial, err := lbm.NewSparse(dom, p)
		if err != nil {
			t.Fatal(err)
		}
		part, err := decomp.RCB(serial, 1+int(ranks)%8, lbm.HarveyAccess())
		if err != nil {
			t.Fatal(err)
		}
		for _, runner := range buildBoth(t, serial, part) {
			owner, localOf := runner.ownerOf, runner.localOf
			for id, rk := range runner.ranks {
				// Each halo slot's edge: the peer, the slot the value leaves
				// from after an even pass, and the slot it arrives in.
				type edgeSlot struct{ peer, src, dst int32 }
				_, halo := rk.Slots()
				slots := make([]edgeSlot, 0, len(halo))
				for _, sp := range rk.sendTo {
					var arrive []int32
					for _, rp := range runner.ranks[sp.peer].recvFrom {
						if rp.peer == id {
							arrive = rp.dstFlat
						}
					}
					if len(arrive) != len(sp.srcFlat) {
						t.Fatalf("rank %d: edge to %d leaves from %d slots and arrives in %d", id, sp.peer, len(sp.srcFlat), len(arrive))
					}
					for j, src := range sp.srcFlat {
						slots = append(slots, edgeSlot{int32(sp.peer), src, arrive[j]})
					}
				}
				if len(slots) != len(halo) {
					t.Fatalf("rank %d: edges cover %d of %d halo slots", id, len(slots), len(halo))
				}
				var want, got [lbm.NQ]int32
				for si, t0 := range owner {
					if int(t0) != id {
						continue
					}
					i := int(localOf[si])
					x, y, z := serial.SiteCoords(si)
					serial.LinkRow(&want, si, x, y, z)
					rk.Links().Row(i, &got)
					for q, nb := range want {
						ok := false
						switch k := int(lbm.RemoteLink(0) - got[q]); {
						case nb < 0:
							ok = got[q] == -1
						case int(owner[nb]) == id:
							ok = got[q] == localOf[nb]
						case k >= 0 && k < len(slots):
							e := slots[k]
							ok = e.peer == owner[nb] && e.src == int32(i*lbm.NQ+lbm.Opp[q]) && e.dst == localOf[nb]*lbm.NQ+int32(q)
						}
						if !ok {
							t.Fatalf("%d ranks, rank %d cell %d (site %d) q %d: Links.Row says %d, LinkRow %d", part.NTasks, id, i, si, q, got[q], nb)
						}
					}
				}
			}
		}
	})
}
