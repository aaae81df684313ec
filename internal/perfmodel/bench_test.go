package perfmodel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
)

var (
	sinkGeneral perfmodel.GeneralModel
	sinkChar    *perfmodel.Characterization
)

// BenchmarkCharacterize is a serving cold fill's phase one (the bench
// ladder's perfmodel.characterize rung): STREAM and PingPong sweeps of
// one catalog system at 5 samples a point, each fitted. Every iteration
// draws a fresh seed, as a never-seen key does.
func BenchmarkCharacterize(b *testing.B) {
	for _, sys := range machine.Catalog() {
		b.Run(sys.Abbrev, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkChar, err = perfmodel.Characterize(sys, 5, rand.New(rand.NewSource(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCalibrateGeneral is the serving cold path's dominant stage
// (the bench ladder's perfmodel.calibrate_general rung), called the way
// serve and core.PrepareAnatomy call it: the CalibrationCounts sweep at
// the catalog's widest node.
func BenchmarkCalibrateGeneral(b *testing.B) {
	coresPerNode := 1
	for _, sys := range machine.Catalog() {
		coresPerNode = max(coresPerNode, sys.CoresPerNode)
	}
	access := lbm.HarveyAccess()
	for _, w := range []struct {
		shape string
		scale float64
	}{{"cylinder", 6}, {"aorta", 8}} {
		b.Run(fmt.Sprintf("%s@%g", w.shape, w.scale), func(b *testing.B) {
			dom, err := campaign.BuildGeometry(w.shape, w.scale)
			if err != nil {
				b.Fatal(err)
			}
			s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
			if err != nil {
				b.Fatal(err)
			}
			counts := core.CalibrationCounts(s.N())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sinkGeneral, err = perfmodel.CalibrateGeneral(s, access, counts, coresPerNode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
