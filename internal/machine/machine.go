// Package machine models the compute systems evaluated in the paper: a
// traditional HPC cluster (TRC) and several cloud instance types (CSP-1,
// CSP-2 Small, CSP-2 with and without the "Enhanced Communicator"
// interconnect). Real hardware is not available in this reproduction, so
// each system is an analytic model calibrated with the paper's published
// numbers (Table I hardware details, Table III microbenchmark fit
// parameters). The models expose exactly the observable surface the paper
// measures: a two-regime node memory-bandwidth curve (STREAM sweep),
// linear message timing (PingPong), run-to-run noise, and pay-as-you-go
// pricing.
package machine

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/units"
)

// MemoryModel describes a node's sustainable memory bandwidth as a
// function of active threads, in the paper's two-regime form (Eq. 8):
// per-core limited below the knee A3, memory-subsystem limited above it.
// All bandwidths are MB/s.
type MemoryModel struct {
	//lint:ignore unitflow A1/A2/A3 mirror the paper's Eq. 8 parameter names; the unit lives in the struct doc
	A1 float64 // per-thread bandwidth slope below the knee (MB/s per thread)
	//lint:ignore unitflow same Eq. 8 naming convention
	A2 float64 // residual slope above the knee (MB/s per thread)
	A3 float64 // knee position (threads)

	// PostKneeCV adds extra relative variance to bandwidth samples taken
	// above the knee. The paper observed that CSP-2 "demonstrates large
	// variance after its inflection point", attributed to cores sharing
	// memory channels.
	PostKneeCV float64

	// HTEfficiency scales bandwidth when two hardware threads share a
	// physical core. Hyperthreading does not add memory bandwidth; on the
	// CSP-2 hyperthreaded instance the paper measured a slight decline
	// (negative a2 in Table III), so values slightly below 1 are typical.
	HTEfficiency float64
}

// Bandwidth returns the modeled node bandwidth (MB/s) with n threads
// active, without noise. n is clamped below at 1.
func (m MemoryModel) Bandwidth(n float64) float64 {
	if n < 1 {
		n = 1
	}
	if n < m.A3 {
		return m.A1 * n
	}
	return m.A2*n + m.A3*(m.A1-m.A2)
}

// Saturation returns the bandwidth at the knee — the node's effective
// memory-subsystem limit.
func (m MemoryModel) Saturation() float64 { return m.A1 * m.A3 }

// LinkModel describes a communication link with the paper's linear model
// (Eq. 12): t = m/b + l.
type LinkModel struct {
	BandwidthMBps float64 // sustained bandwidth b, MB/s
	LatencyUS     float64 // zero-byte latency l, microseconds
}

// TimeUS returns the modeled time in microseconds to move a message of the
// given size in bytes.
func (l LinkModel) TimeUS(bytes float64) float64 {
	return units.SecondsToMicros(bytes/units.MBpsToBps(l.BandwidthMBps)) + l.LatencyUS
}

// System is a complete description of one target infrastructure: the
// catalog row (Table I), the calibrated behavioural models (Table III) and
// commercial terms for the cloud decision framework.
type System struct {
	Name   string // full display name, e.g. "Traditional Compute Cluster"
	Abbrev string // short name used throughout the paper, e.g. "TRC"

	// Table I catalog fields.
	CPU              string
	ClockGHz         float64
	TotalCores       int
	CoresPerNode     int
	VCPUsPerCore     int // 1 without hyperthreading, 2 with
	MemPerNodeGB     float64
	InterconnectGbps float64

	// PublishedMemBWMBps is the vendor-published maximum nodal memory
	// bandwidth (Table II, "Published" row).
	PublishedMemBWMBps float64

	// Behavioural models.
	Mem       MemoryModel
	InterNode LinkModel // link between nodes (the cloud differentiator)
	IntraNode LinkModel // on-node rank-to-rank transfer

	// GPU is non-nil for accelerator instances: one rank drives one
	// device, and halo traffic pays the host-device transfer term
	// t_CPU-GPU of Eq. 2.
	GPU *GPUSpec

	// NoiseCV is the run-to-run coefficient of variation of whole-
	// application performance (the Table IV noise study).
	NoiseCV float64

	// Commercial terms for the dashboard and budget guard. Prices are
	// synthetic but proportioned like 2022-era on-demand rates; the
	// decision framework only depends on their ratios.
	PricePerNodeHourUSD float64 // USD per node-hour
	ProvisionDelayS     float64 // seconds from request to usable nodes
	Dedicated           bool    // dedicated (allocation) vs on-demand
}

// Nodes returns how many nodes are needed to host the given number of
// ranks at one rank per core, rounding up. It panics if ranks is not
// positive — callers size jobs before asking.
func (s *System) Nodes(ranks int) int {
	if ranks <= 0 {
		panic(fmt.Sprintf("machine: Nodes(%d) on %s: ranks must be positive", ranks, s.Abbrev))
	}
	return (ranks + s.CoresPerNode - 1) / s.CoresPerNode
}

// MaxRanks returns the total core count available, the strong-scaling
// ceiling for one-rank-per-core placement.
func (s *System) MaxRanks() int { return s.TotalCores }

// SampleBandwidth returns one noisy STREAM-style bandwidth observation at
// the given thread count, using rng for reproducible draws. Hyperthreaded
// sampling (threads beyond physical cores) applies HTEfficiency.
func (s *System) SampleBandwidth(threads int, hyperthreaded bool, rng *rand.Rand) float64 {
	n := float64(threads)
	bw := s.Mem.Bandwidth(n)
	if hyperthreaded && s.VCPUsPerCore > 1 {
		// With one software thread per vCPU, physical cores start double-
		// booking once threads exceed the core count: no extra bandwidth,
		// modest contention penalty that grows with oversubscription.
		phys := float64(s.CoresPerNode)
		if n > phys {
			bw = s.Mem.Bandwidth(phys)
			over := (n - phys) / phys
			bw *= math.Pow(s.Mem.HTEfficiency, over)
		}
	}
	cv := 0.005 // baseline measurement jitter on any system
	if n >= s.Mem.A3 && s.Mem.PostKneeCV > cv {
		cv = s.Mem.PostKneeCV
	}
	return bw * lognormalFactor(rng, cv)
}

// SampleMessageTimeUS returns one noisy PingPong observation in
// microseconds for a message of the given size. intra selects the
// on-node link.
func (s *System) SampleMessageTimeUS(bytes float64, intra bool, rng *rand.Rand) float64 {
	link := s.InterNode
	if intra {
		link = s.IntraNode
	}
	return link.TimeUS(bytes) * lognormalFactor(rng, 0.03)
}

// RunNoise returns a multiplicative noise factor for one whole-application
// run, reproducing the Table IV variability study. The factor has unit
// mean and coefficient of variation NoiseCV.
func (s *System) RunNoise(rng *rand.Rand) float64 {
	return lognormalFactor(rng, s.NoiseCV)
}

// JobCost returns the USD cost of holding the nodes needed for the given
// rank count for the given number of seconds. Cloud billing is node-based:
// the paper assumes "cloud allocations are node based wherein the user is
// allocated all cores on a node".
func (s *System) JobCost(ranks int, seconds float64) float64 {
	return float64(s.Nodes(ranks)) * units.SecondsToHours(seconds) * s.PricePerNodeHourUSD
}

// String returns the abbreviation, the identity used in all tables.
func (s *System) String() string { return s.Abbrev }

// lognormalFactor draws a multiplicative noise factor with mean 1 and the
// given coefficient of variation. A lognormal keeps performance strictly
// positive, matching how throughput noise behaves in practice.
func lognormalFactor(rng *rand.Rand, cv float64) float64 {
	if cv <= 0 {
		return 1
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := -sigma2 / 2
	return math.Exp(mu + math.Sqrt(sigma2)*rng.NormFloat64())
}
