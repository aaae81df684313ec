package decomp_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/lbm"
)

// The benchmarks decompose cylinder@6 (5 424 sites), the lattice the
// serving cold path calibrates most: RCB/32 is the bench ladder's
// decomp.rcb_cold rung, RCBSweep the whole calibration sweep 1…512.
// BenchmarkRCB also decomposes aorta@16 (207 k sites, above
// lbm.SetupFloor, so split across goroutines) at one task per CPU and at
// 128: the solve's decomp.rcb_nproc and decomp.rcb_128 rungs.

var sinkPartitions []*decomp.Partition

func BenchmarkRCB(b *testing.B) {
	m := lbm.HarveyAccess()
	cylinder, aorta := buildSolver(b, "cylinder", 6), buildSolver(b, "aorta", 16)
	for _, c := range []struct {
		s    *lbm.Sparse
		name string
		k    int
	}{
		{cylinder, "32", 32},
		{cylinder, "512", 512},
		{aorta, "aorta@16/nproc", runtime.GOMAXPROCS(0)},
		{aorta, "aorta@16/128", 128},
	} {
		s, k := c.s, c.k
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := decomp.RCB(s, k, m)
				if err != nil {
					b.Fatal(err)
				}
				sinkPartitions = append(sinkPartitions[:0], p)
			}
		})
	}
}

func BenchmarkRCBSweep(b *testing.B) {
	s := buildSolver(b, "cylinder", 6)
	m := lbm.HarveyAccess()
	counts := core.CalibrationCounts(s.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, err := decomp.RCBSweep(s, counts, m)
		if err != nil {
			b.Fatal(err)
		}
		sinkPartitions = parts
	}
}
