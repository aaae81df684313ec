package roofline

import "testing"

func TestFlopTimeTinyForLBM(t *testing.T) {
	// The paper drops the FLOP term for CPU LBM; at realistic ceilings the
	// flop time must be well under the memory time for the same points.
	m := Machine{PeakGFLOPS: 1200, PeakBandwidthGBps: 60}
	k := D3Q19BGK(456)
	const n = 1e6
	flopT := FlopTimeS(k, m, n)
	memT := n * k.BytesPerPoint / (m.PeakBandwidthGBps * 1e9)
	if flopT >= memT/2 {
		t.Errorf("flop time %v not well below memory time %v", flopT, memT)
	}
}
