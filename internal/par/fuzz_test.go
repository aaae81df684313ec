package par

import (
	"math"
	"testing"

	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
)

// FuzzRunnerMatchesSerial draws a small vessel — a cylinder or a stenosis,
// open or periodic — a rank count from 1 to 8, 0 to 9 steps split over two
// Run calls, BGK or TRT, and a body force or none, and holds par.Runner to
// lbm.Sparse bit for bit on every cell and on TotalMass.
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
		runner, err := NewRunner(serial, part)
		if err != nil {
			t.Fatal(err)
		}
		total := int(steps) % 10
		first := int(split) % (total + 1)
		runner.Run(first)
		runner.Run(total - first)
		serial.Run(total)
		for si := 0; si < serial.N(); si++ {
			want, got := serial.Cell(si), runner.Cell(si)
			for q := range want {
				if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
					t.Fatalf("%d ranks, %d+%d steps, site %d q %d: runner %v, serial %v",
						part.NTasks, first, total-first, si, q, got[q], want[q])
				}
			}
		}
		if got, want := runner.TotalMass(), serial.TotalMass(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d ranks, %d steps: runner mass %v, serial %v", part.NTasks, total, got, want)
		}
	})
}
