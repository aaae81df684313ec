package machine

import "math/rand"

// GPUSpec describes the accelerator configuration of a GPU instance.
// HARVEY "can be run on both CPUs and GPUs at scale"; the paper's full
// model (Eq. 2) includes the CPU-GPU data transfer term t_CPU-GPU that
// this spec parameterizes. One MPI rank drives one GPU, the standard
// HARVEY-GPU configuration.
type GPUSpec struct {
	Model string

	// MemBWMBps is the sustainable device-memory bandwidth per GPU. Each
	// rank owns a whole device, so unlike CPU cores there is no
	// bandwidth sharing between ranks on a node.
	MemBWMBps float64

	// PCIe is the host-device link: halo data crosses it on the way to
	// and from the interconnect (device -> host before a send, host ->
	// device after a receive).
	PCIe LinkModel

	PerNode int // GPUs (and thus ranks) per node
}

// NewCSP2GPU returns a GPU instance type of Cloud 2: 4 nodes of 4
// data-center GPUs each on the EC interconnect, modeled after 2022-era
// V100-class offerings (900 GB/s HBM2, ~12 GB/s effective PCIe 3.0 x16).
// For the CPU-side fields, cores back the host processes; rank placement
// is per GPU via PerNode.
func NewCSP2GPU() *System {
	return withNoise(&System{
		Name:               "Cloud 2 - GPU",
		Abbrev:             "CSP-2 GPU",
		CPU:                "Intel Xeon E5-2686 v4 + 4x V100-class GPU",
		ClockGHz:           2.70,
		TotalCores:         16, // 4 nodes x 4 GPUs: one rank per GPU
		CoresPerNode:       4,
		VCPUsPerCore:       1,
		MemPerNodeGB:       488,
		InterconnectGbps:   100,
		PublishedMemBWMBps: 900000, // per GPU
		Mem: MemoryModel{
			// One rank per device: bandwidth scales linearly with ranks
			// and never saturates within a node (A2 == A1, knee beyond
			// the device count).
			A1: 780000, A2: 780000, A3: 4,
			PostKneeCV: 0.01, HTEfficiency: 1,
		},
		InterNode: LinkModel{BandwidthMBps: 2016.77, LatencyUS: 20.94},
		IntraNode: LinkModel{BandwidthMBps: 9500, LatencyUS: 0.6},
		GPU: &GPUSpec{
			Model:     "V100-class",
			MemBWMBps: 780000,
			PCIe:      LinkModel{BandwidthMBps: 12000, LatencyUS: 6.5},
			PerNode:   4,
		},
		NoiseCV:             0.012,
		PricePerNodeHourUSD: 12.24,
		ProvisionDelayS:     140,
	})
}

// SamplePCIeTimeUS returns one noisy host-device transfer observation in
// microseconds for the given payload. It panics if the system has no GPU
// — callers select the PCIe benchmark only for accelerator instances.
func (s *System) SamplePCIeTimeUS(bytes float64, rng *rand.Rand) float64 {
	if s.GPU == nil {
		panic("machine: SamplePCIeTimeUS on a CPU-only system")
	}
	return s.GPU.PCIe.TimeUS(bytes) * messageNoise.factor(rng)
}
