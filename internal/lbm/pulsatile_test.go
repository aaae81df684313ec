package lbm

import (
	"math"
	"testing"

	"repro/internal/geometry"
)

func TestWaveformScale(t *testing.T) {
	off := Waveform{}
	for _, step := range []int{0, 7, 100} {
		if off.Scale(step) != 1 {
			t.Errorf("disabled waveform scale at %d = %v", step, off.Scale(step))
		}
	}
	w := Waveform{Period: 100, Amplitude: 0.5}
	if got := w.Scale(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Scale(0) = %v, want 1", got)
	}
	if got := w.Scale(25); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Scale(quarter period) = %v, want 1.5", got)
	}
	if got := w.Scale(75); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Scale(three quarters) = %v, want 0.5", got)
	}
	// Periodicity.
	if math.Abs(w.Scale(10)-w.Scale(110)) > 1e-12 {
		t.Error("waveform not periodic")
	}
}

func TestPulsatileValidation(t *testing.T) {
	bad := []Params{
		{Tau: 0.9, UMax: 0.05, Pulsatile: Waveform{Period: -1}},
		{Tau: 0.9, UMax: 0.05, Pulsatile: Waveform{Period: 100, Amplitude: -0.1}},
		{Tau: 0.9, UMax: 0.05, Pulsatile: Waveform{Period: 100, Amplitude: 2.5}},
		{Tau: 0.9, UMax: 0.2, Pulsatile: Waveform{Period: 100, Amplitude: 0.9}}, // peak 0.38
		{Tau: 0.9, UMax: 0.05, Pulsatile: Waveform{Amplitude: 5}},               // steady, amplitude still checked
		{Tau: 0.9, UMax: 0.05, Pulsatile: Waveform{Amplitude: -1}},
		{Tau: 0.9, UMax: 0.05, Pulsatile: Waveform{Amplitude: math.NaN()}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad pulsatile params %d accepted", i)
		}
	}
	for _, good := range []Params{
		{Tau: 0.9, UMax: 0.05, Pulsatile: Waveform{Period: 200, Amplitude: 0.5}},
		{Tau: 0.9, UMax: 0.25, Pulsatile: Waveform{Amplitude: 0.5}}, // steady: no peak check
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid pulsatile params rejected: %v", err)
		}
	}
}

// inletFlux sums the axial velocity over the inlet plane.
func inletFlux(s *Sparse) float64 {
	var flux float64
	for si := 0; si < s.N(); si++ {
		if s.Type(si) == geometry.Inlet {
			_, ux, _, _ := s.Macro(si)
			flux += ux
		}
	}
	return flux
}

func TestPulsatileFlowOscillates(t *testing.T) {
	dom, err := geometry.Cylinder(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	const period = 120.0
	s, err := NewSparse(dom, Params{
		Tau: 0.9, UMax: 0.03,
		Pulsatile: Waveform{Period: period, Amplitude: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the cycle establish, then sample one full period.
	s.Run(2 * int(period))
	var fluxes []float64
	for i := 0; i < int(period); i++ {
		s.Step()
		fluxes = append(fluxes, inletFlux(s))
	}
	min, max := fluxes[0], fluxes[0]
	for _, f := range fluxes {
		min = math.Min(min, f)
		max = math.Max(max, f)
	}
	if max <= 0 {
		t.Fatal("no forward flow")
	}
	// Amplitude 0.6: peak/trough inlet flux ratio approaches 1.6/0.4 = 4.
	if ratio := max / min; ratio < 2 {
		t.Errorf("flux ratio %v shows no meaningful pulsatility (min %v, max %v)", ratio, min, max)
	}
	// The cycle repeats: flux one period apart matches closely.
	s.Run(int(period))
	if again := inletFlux(s); math.Abs(again-fluxes[len(fluxes)-1]) > 0.05*math.Abs(fluxes[len(fluxes)-1]) {
		t.Errorf("cycle does not repeat: %v vs %v", again, fluxes[len(fluxes)-1])
	}
	if v := s.MaxSpeed(); v > 0.2 {
		t.Errorf("pulsatile run unstable: %v", v)
	}
}
