package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/simcloud"
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

// TestExtTermSelectionImproves checks that the per-term re-fit finds the
// planted answer and that it carries to an anatomy it never saw: on every
// catalog system the memory coefficient lies within 3 standard errors of
// simcloud.KernelOverhead, and the per-term correction's held-out MAPE
// beats both the raw prediction and the scalar correction. The
// communication coefficients are logged, not gated.
func TestExtTermSelectionImproves(t *testing.T) {
	r := report(t, "ext-terms", ExtTermRefit)
	for _, sys := range machine.Catalog() {
		name := sys.Abbrev
		mem, se := value(t, r, name+"/coef", 0), value(t, r, name+"/se", 0)
		if se <= 0 || math.Abs(mem-simcloud.KernelOverhead) > 3*se {
			t.Errorf("%s: memory coefficient %.4f ± %.4f, want %v within 3 SE", name, mem, se, simcloud.KernelOverhead)
		}
		raw, scalar, term := value(t, r, name+"/mape", 0), value(t, r, name+"/mape", 1), value(t, r, name+"/mape", 2)
		if term >= raw || term >= scalar {
			t.Errorf("%s: held-out MAPE per-term %.4f, raw %.4f, scalar %.4f", name, term, raw, scalar)
		}
		t.Logf("%s: communication coefficient %.3f ± %.3f", name, value(t, r, name+"/coef", 1), value(t, r, name+"/se", 1))
	}
}
