package perfmodel_test

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
)

var sinkGeneral perfmodel.GeneralModel

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
