package perfmodel

import (
	"repro/internal/fit"
	"repro/internal/machine"
)

// SpecSheet fills the model's parameters from a catalog row alone, as
// Tier 0 does. Mem is Eq. 8 flattened to a plateau at the published nodal
// memory bandwidth (a device's figure times devices per node on GPU
// rows), which the model splits evenly over the ranks sharing a node.
// Inter is the nominal interconnect rate and Intra the nodal bandwidth,
// both at zero latency: no latency spec is published. PeakGFLOPS is a
// core's clock times flopsPerCycle. With no raw sweeps, every message is
// priced on the link lines. What the fits capture — sustained against
// published bandwidth, link latency, load imbalance — is missing, hence
// Tier 0's wide confidence band.
func SpecSheet(sys *machine.System) *Characterization {
	nodalMBps := sys.PublishedMemBWMBps
	if sys.GPU != nil {
		nodalMBps *= float64(sys.GPU.PerNode)
	}
	return &Characterization{
		System:       sys.Abbrev,
		CoresPerNode: sys.CoresPerNode,
		TotalCores:   sys.TotalCores,
		Mem:          fit.TwoLine{A1: nodalMBps, A3: 1},
		Inter:        machine.LinkModel{BandwidthMBps: sys.InterconnectGbps * 1e3 / 8}, // Gbit/s → MB/s
		Intra:        machine.LinkModel{BandwidthMBps: nodalMBps},
		PeakGFLOPS:   peakGFLOPS(sys.ClockGHz),
	}
}

// flopsPerCycle is the assumed per-core double-precision issue width
// (one 512-bit FMA per cycle): spec-sheet physics, not a fit.
const flopsPerCycle = 16

// peakGFLOPS converts a core clock to its spec-sheet compute ceiling:
// cycles per nanosecond times flopsPerCycle is GFLOP/s.
func peakGFLOPS(cyclesPerNS float64) float64 { return cyclesPerNS * flopsPerCycle }

// flopsPerPoint is the floating-point work of one D3Q19 BGK fluid-point
// update: roughly 250 operations for the moments, the equilibrium and
// the relaxation over 19 directions. Priced at PeakGFLOPS it is the
// "time for floating point operations" the paper's Discussion lists among
// the costs its bandwidth-only model ignores. For LBM on general-purpose
// CPUs that time is far below the memory time, which is why the paper
// could drop it; the model gates each rank's memory time on it where
// PeakGFLOPS is set (Characterization.flopS).
const flopsPerPoint = 250
