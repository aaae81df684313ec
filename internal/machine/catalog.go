package machine

import "fmt"

// The five systems of Table I. Memory-model and inter-node link parameters
// are taken directly from the paper's Table III fits where published (TRC,
// CSP-2, CSP-2 EC, CSP-1, CSP-2 Hyp.); CSP-2 Small parameters are derived
// from its hardware class (same Haswell generation as CSP-1/CSP-2, small
// 8-core nodes on the slow 10 Gbit/s fabric). Intra-node links are not
// tabulated in the paper beyond "much less runtime than memory accesses";
// they are set to shared-memory-copy scale (GB/s bandwidth, sub-µs
// latency), which keeps them subdominant exactly as Figure 9 shows.
//
// Prices are synthetic (the paper withholds dollar figures) but keep the
// ratios of 2022-era published on-demand rates for comparable instances,
// which is all the cost-weighted decision metrics consume.

// NewTRC returns the traditional compute cluster: dual-socket Broadwell
// nodes on 56 Gbit/s InfiniBand.
func NewTRC() *System {
	return withNoise(&System{
		Name:                "Traditional Compute Cluster",
		Abbrev:              "TRC",
		CPU:                 "Intel Xeon E5-2699 v4",
		ClockGHz:            2.19,
		TotalCores:          2000,
		CoresPerNode:        40,
		VCPUsPerCore:        1,
		MemPerNodeGB:        471,
		InterconnectGbps:    56,
		PublishedMemBWMBps:  76800,
		Mem:                 MemoryModel{A1: 6768.24, A2: 369.16, A3: 6.39, PostKneeCV: 0.008, HTEfficiency: 1},
		InterNode:           LinkModel{BandwidthMBps: 5066.57, LatencyUS: 2.01},
		IntraNode:           LinkModel{BandwidthMBps: 9800, LatencyUS: 0.45},
		NoiseCV:             0.006,
		PricePerNodeHourUSD: 2.20,  // amortized allocation-equivalent rate
		ProvisionDelayS:     14400, // queue wait at a busy center (≈4 h median)
		Dedicated:           true,
	})
}

// NewCSP1 returns Cloud 1, the dedicated 16-core-node instance on a
// 10 Gbit/s fabric used for the noise study.
func NewCSP1() *System {
	return withNoise(&System{
		Name:                "Cloud 1 - Dedicated",
		Abbrev:              "CSP-1",
		CPU:                 "Intel Xeon E5-2667 v3",
		ClockGHz:            3.19,
		TotalCores:          48,
		CoresPerNode:        16,
		VCPUsPerCore:        1,
		MemPerNodeGB:        16,
		InterconnectGbps:    10,
		PublishedMemBWMBps:  68000,
		Mem:                 MemoryModel{A1: 18092.64, A2: -62.79, A3: 4.15, PostKneeCV: 0.012, HTEfficiency: 0.97},
		InterNode:           LinkModel{BandwidthMBps: 1030, LatencyUS: 31.5},
		IntraNode:           LinkModel{BandwidthMBps: 8200, LatencyUS: 0.6},
		NoiseCV:             0.015,
		PricePerNodeHourUSD: 1.60,
		ProvisionDelayS:     95,
		Dedicated:           true,
	})
}

// NewCSP2Small returns the small 8-core on-demand node type of Cloud 2
// used in the noise-variability study.
func NewCSP2Small() *System {
	return withNoise(&System{
		Name:                "Cloud 2 - Small",
		Abbrev:              "CSP-2 Small",
		CPU:                 "Intel Xeon E5-2666 v3",
		ClockGHz:            2.42,
		TotalCores:          128,
		CoresPerNode:        8,
		VCPUsPerCore:        2,
		MemPerNodeGB:        30,
		InterconnectGbps:    10,
		PublishedMemBWMBps:  59700,
		Mem:                 MemoryModel{A1: 7430.0, A2: 815.0, A3: 4.6, PostKneeCV: 0.02, HTEfficiency: 0.96},
		InterNode:           LinkModel{BandwidthMBps: 1065, LatencyUS: 28.8},
		IntraNode:           LinkModel{BandwidthMBps: 7600, LatencyUS: 0.62},
		NoiseCV:             0.013,
		PricePerNodeHourUSD: 0.40,
		ProvisionDelayS:     70,
	})
}

// NewCSP2 returns Cloud 2's large 36-core node type on the provider's
// unnamed slower (25 Gbit/s) interconnect.
func NewCSP2() *System {
	return withNoise(&System{
		Name:                "Cloud 2 - No EC",
		Abbrev:              "CSP-2",
		CPU:                 "Intel Xeon Platinum 8124M",
		ClockGHz:            3.41,
		TotalCores:          144,
		CoresPerNode:        36,
		VCPUsPerCore:        2,
		MemPerNodeGB:        144,
		InterconnectGbps:    25,
		PublishedMemBWMBps:  162720,
		Mem:                 MemoryModel{A1: 7790.02, A2: 1264.80, A3: 9.00, PostKneeCV: 0.045, HTEfficiency: 0.95},
		InterNode:           LinkModel{BandwidthMBps: 1804.84, LatencyUS: 23.59},
		IntraNode:           LinkModel{BandwidthMBps: 8900, LatencyUS: 0.55},
		NoiseCV:             0.012,
		PricePerNodeHourUSD: 3.06,
		ProvisionDelayS:     80,
	})
}

// NewCSP2EC returns Cloud 2's large node type with the proprietary
// Enhanced Communicator 100 Gbit/s interconnect.
func NewCSP2EC() *System {
	return withNoise(&System{
		Name:                "Cloud 2 - With EC",
		Abbrev:              "CSP-2 EC",
		CPU:                 "Intel Xeon Platinum 8124M",
		ClockGHz:            3.40,
		TotalCores:          144,
		CoresPerNode:        36,
		VCPUsPerCore:        2,
		MemPerNodeGB:        192,
		InterconnectGbps:    100,
		PublishedMemBWMBps:  162720,
		Mem:                 MemoryModel{A1: 7605.85, A2: 1269.95, A3: 11.00, PostKneeCV: 0.040, HTEfficiency: 0.95},
		InterNode:           LinkModel{BandwidthMBps: 2016.77, LatencyUS: 20.94},
		IntraNode:           LinkModel{BandwidthMBps: 8900, LatencyUS: 0.55},
		NoiseCV:             0.012,
		PricePerNodeHourUSD: 3.89,
		ProvisionDelayS:     85,
	})
}

// Catalog returns all Table I systems in the paper's column order.
func Catalog() []*System {
	return []*System{NewTRC(), NewCSP1(), NewCSP2Small(), NewCSP2EC(), NewCSP2()}
}

// FullCatalog returns the Table I systems plus the GPU instance type the
// extension studies add.
func FullCatalog() []*System {
	return append(Catalog(), NewCSP2GPU())
}

// WidestNode returns the largest CoresPerNode among the systems (at
// least 1): the node width the generalized model is calibrated at so one
// anatomy tuning serves every candidate.
func WidestNode(systems []*System) int {
	widest := 1
	for _, s := range systems {
		widest = max(widest, s.CoresPerNode)
	}
	return widest
}

// ByAbbrev returns the catalog system (including the GPU instance) with
// the given abbreviation.
func ByAbbrev(abbrev string) (*System, error) {
	for _, s := range FullCatalog() {
		if s.Abbrev == abbrev {
			return s, nil
		}
	}
	return nil, fmt.Errorf("machine: unknown system %q", abbrev)
}
