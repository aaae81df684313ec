package fit_test

import (
	"math"
	"testing"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/mbench"
)

// TestTwoLineLSQAgreesOnCatalog fits the noiseless STREAM sweep of every
// Table I system with the exact fit and with the grid oracle: on real
// sweep shapes the two must find the same Eq. 8 parameters.
func TestTwoLineLSQAgreesOnCatalog(t *testing.T) {
	systems := machine.Catalog()
	if len(systems) != 5 {
		t.Fatalf("catalog has %d systems, want 5", len(systems))
	}
	for _, sys := range systems {
		var xs, ys []float64
		for _, p := range mbench.StreamSweepSim(sys, false, 1, nil) {
			xs = append(xs, float64(p.Threads))
			ys = append(ys, p.BandwidthMBps)
		}
		got, err := fit.TwoLineLSQ(xs, ys)
		if err != nil {
			t.Fatalf("%s: %v", sys.Abbrev, err)
		}
		want, err := fit.TwoLineGridOracle(xs, ys)
		if err != nil {
			t.Fatalf("%s oracle: %v", sys.Abbrev, err)
		}
		for _, p := range []struct {
			name      string
			got, want float64
		}{{"a1", got.A1, want.A1}, {"a2", got.A2, want.A2}, {"a3", got.A3, want.A3}} {
			if math.Abs(p.got-p.want) > 1e-6*math.Abs(p.want) {
				t.Errorf("%s: %s = %v, oracle %v", sys.Abbrev, p.name, p.got, p.want)
			}
		}
	}
}
