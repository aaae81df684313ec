package experiments

import (
	"strings"
	"testing"
)

func TestExtGPUShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates GPU study")
	}
	r := report(t, "ext-gpu", ExtGPU)
	// One GPU node outruns one CPU node by a large factor on memory-bound
	// work.
	gpu1 := value(t, r, "CSP-2 GPU/actual", 1)
	cpu1 := value(t, r, "CSP-2/actual", 1)
	if gpu1 < 3*cpu1 {
		t.Errorf("GPU node (%v) not well above CPU node (%v)", gpu1, cpu1)
	}
	// The direct model with the t_CPU-GPU term tracks the simulated truth.
	for nodes := 1.0; nodes <= 4; nodes++ {
		a := value(t, r, "CSP-2 GPU/actual", nodes)
		d := value(t, r, "CSP-2 GPU/direct", nodes)
		if ratio := d / a; ratio < 0.5 || ratio > 2 {
			t.Errorf("nodes=%v: GPU prediction %v vs actual %v", nodes, d, a)
		}
	}
	if !strings.Contains(r.Text, "t_CPU-GPU") {
		t.Error("report does not surface the t_CPU-GPU term")
	}
}

func TestExtSharedNodeMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates shared-node study")
	}
	r := report(t, "ext-shared", ExtSharedNode)
	for _, kind := range []string{"actual", "direct"} {
		s := r.Series[kind]
		if len(s) != 5 {
			t.Fatalf("%s sweep has %d points, want 5", kind, len(s))
		}
		for i := 1; i < len(s); i++ {
			if s[i].Y >= s[i-1].Y {
				t.Errorf("%s not monotone at occupancy %v: %v >= %v", kind, s[i].X, s[i].Y, s[i-1].Y)
			}
		}
	}
	// The occupancy-aware model tracks the simulated truth at every
	// occupancy level.
	for i, a := range r.Series["actual"] {
		d := r.Series["direct"][i]
		if ratio := d.Y / a.Y; ratio < 0.5 || ratio > 2 {
			t.Errorf("occupancy %v: model %v vs actual %v", a.X, d.Y, a.Y)
		}
	}
}

func TestExtTermSelectionImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates term-selection study")
	}
	r := report(t, "ext-terms", ExtTermSelection)
	base := value(t, r, "mape", 0)
	final := value(t, r, "mape", 1)
	if final >= base {
		t.Errorf("feedback loop did not improve accuracy: %v -> %v", base, final)
	}
	if !strings.Contains(r.Text, "kernel-overhead") {
		t.Error("overhead term not kept")
	}
	if !strings.Contains(r.Text, "flops") || !strings.Contains(strings.Split(r.Text, "rejected:")[1], "flops") {
		t.Error("flops term not rejected")
	}
}
