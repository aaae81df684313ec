package decomp_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/lbm"
)

// The benchmarks decompose cylinder@6 (5 424 sites), the lattice the
// serving cold path calibrates most: RCB/32 is the bench ladder's
// decomp.rcb_cold rung, RCBSweep the whole calibration sweep 1…512.

var sinkPartitions []*decomp.Partition

func BenchmarkRCB(b *testing.B) {
	s := buildSolver(b, "cylinder", 6)
	m := lbm.HarveyAccess()
	for _, k := range []int{32, 512} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
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
