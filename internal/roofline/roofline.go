// Package roofline holds the two ceilings of a compute device and the
// per-point work of a kernel, and from them the compute-ceiling time the
// paper's Discussion proposes folding into the framework: Tier 0 prices
// it from the spec sheet, and the term selector is offered it as an
// additional runtime term (perfmodel.FlopTerm).
package roofline

// Machine is the two-ceiling roofline of one compute device.
type Machine struct {
	PeakGFLOPS        float64 // floating-point ceiling, GFLOP/s
	PeakBandwidthGBps float64 // memory ceiling, GB/s
}

// Kernel characterizes one computational kernel by its per-point work.
type Kernel struct {
	Name          string
	FlopsPerPoint float64 // floating-point operations per fluid-point update
	BytesPerPoint float64 // memory traffic per fluid-point update
}

// D3Q19BGK returns the roofline kernel for a D3Q19 BGK fluid-point
// update: roughly 250 floating-point operations (moments, equilibrium,
// relaxation over 19 directions) against the supplied effective byte
// count from the Eq. 9 accounting.
func D3Q19BGK(bytesPerPoint float64) Kernel {
	return Kernel{Name: "D3Q19-BGK", FlopsPerPoint: 250, BytesPerPoint: bytesPerPoint}
}

// FlopTimeS returns the pure compute-ceiling time for updating n points —
// the "time for floating point operations" term the paper's Discussion
// lists among the costs its bandwidth-only model ignores. For LBM on
// general-purpose CPUs this is far below the memory time, which is why
// the paper could drop it; the term selector in internal/perfmodel
// verifies that empirically.
func FlopTimeS(k Kernel, m Machine, n float64) float64 {
	return n * k.FlopsPerPoint / (m.PeakGFLOPS * 1e9)
}
