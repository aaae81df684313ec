package lbm

// AccessModel quantifies memory accesses per fluid-point update for a
// kernel, the n_vectors * n_accesses * d_size counting of Eq. 9. The
// counts describe a production HARVEY-style kernel: wall-adjacent points
// store and move only their fluid-direction vectors, so they touch fewer
// bytes than bulk points (the reason the cerebral geometry performs best
// in Figure 3).
type AccessModel struct {
	DataSize  int // bytes per distribution value (8 for float64)
	IndexSize int // bytes per neighbor-table entry (0 for dense kernels)

	// ReadsPerVector and WritesPerVector count data accesses per stored
	// vector per timestep, averaged over the pattern's cycle (the AA
	// pattern alternates cheap and expensive steps).
	ReadsPerVector  float64
	WritesPerVector float64

	// IndexFraction is the fraction of timesteps on which the neighbor
	// index table is read (1 for AB, 0.5 for AA).
	IndexFraction float64

	// Efficiency scales how effectively the kernel uses memory bandwidth
	// (0 < Efficiency <= 1). Layout and loop structure change achieved
	// bandwidth without changing algorithmic bytes: on CPUs the AOS layout
	// streams better than rolled SOA, and unrolling recovers most of the
	// SOA penalty (Herschlag et al., and Figures 4/8 of the paper).
	// PointBytes folds it in as effective traffic.
	//lint:ignore unitflow dimensionless fraction; the comment mentions bytes only as context
	Efficiency float64
}

// HarveyAccess returns the access model of the paper's HARVEY: AB
// pattern, AOS layout, indirect addressing with 4-byte indices. It is the
// price of HARVEY on the simulated systems, which decomposition, the
// model and simcloud read. This repository's engine (Block) is a
// different kernel — AA in place, its index read on odd passes only and
// not at all inside a run — whose own price from its link table is
// ROADMAP.md item 17(a).
func HarveyAccess() AccessModel {
	return AccessModel{DataSize: 8, IndexSize: 4, ReadsPerVector: 1, WritesPerVector: 1, IndexFraction: 1, Efficiency: 1}
}

// ProxyAccess returns the access model for a variant of the paper's
// lbm-proxy-app, its price on the simulated systems (Figures 4 and 8). It
// prices the paper's dense kernels. This repository's six variants run on
// the engine's link table (NewProxy) and are different kernels, whose
// price from that table is ROADMAP.md item 17(a).
//
// Dense kernels have no per-direction index table, but the AB pattern
// writes into a second array whose cache lines are read on store miss
// (write-allocate), counted as an extra read per vector; the AA pattern's
// single array avoids that, which is the paper's explanation for AA's
// higher throughput.
//
// The efficiency factors encode the layout findings of Figures 4 and 8:
// AOS streams best for the AB pattern on CPUs; rolled SOA pays loop and
// TLB overheads that cancel AA's traffic advantage (the paper observed the
// AA improvement "only for the unrolled kernels"); unrolling recovers most
// of the SOA penalty and makes SOA-AA the fastest variant.
func ProxyAccess(cfg KernelConfig) AccessModel {
	m := AccessModel{DataSize: 8, IndexSize: 0, ReadsPerVector: 1, WritesPerVector: 1}
	if cfg.Pattern == AB {
		m.ReadsPerVector = 2 // source read + destination write-allocate
		m.IndexFraction = 1
	} else {
		m.IndexFraction = 0.5
	}
	switch {
	case cfg.Layout == AOS && cfg.Pattern == AB:
		m.Efficiency = 1.0
	case cfg.Layout == AOS && cfg.Pattern == AA:
		m.Efficiency = 0.70
	case cfg.Unrolled && cfg.Pattern == AB:
		m.Efficiency = 0.92
	case cfg.Unrolled && cfg.Pattern == AA:
		m.Efficiency = 0.90
	case cfg.Pattern == AB: // rolled SOA
		m.Efficiency = 0.80
	default: // rolled SOA, AA
		m.Efficiency = 0.54
	}
	return m
}

// PointBytes returns the effective bytes accessed per timestep to update
// one fluid point that stores the given number of vectors (fluid links +
// rest), including the kernel's bandwidth-efficiency penalty.
func (m AccessModel) PointBytes(vectors int) float64 {
	v := float64(vectors)
	raw := v*(m.ReadsPerVector+m.WritesPerVector)*float64(m.DataSize) +
		v*m.IndexFraction*float64(m.IndexSize)
	eff := m.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return raw / eff
}

// CommBytesPerLink is the data communicated per crossing lattice link in a
// halo exchange: one float64 distribution value.
const CommBytesPerLink = 8

// Vectors returns the number of stored vectors at local site si of the
// sparse engine: the rest vector plus one per fluid link.
func (l *Lattice) Vectors(si int) int { return int(l.nvec[si]) }

// BytesSerial returns the total bytes accessed per timestep by a serial
// run under access model m — the n_bytes-serial input of Eq. 10.
func (l *Lattice) BytesSerial(m AccessModel) float64 {
	var total float64
	for _, v := range l.nvec {
		total += m.PointBytes(int(v))
	}
	return total
}
