package perfmodel

import (
	"fmt"
	"runtime"

	"repro/internal/machine"
	"repro/internal/mbench"
)

// CharacterizeHost runs the real microbenchmarks on the machine this
// process is executing on — a STREAM Copy thread sweep and a goroutine
// PingPong — and fits them exactly as the cloud systems are fitted. The
// result drives the same predictors, so the paper's whole methodology can
// be exercised on physical hardware: predict the LBM engines' throughput
// from microbenchmarks, measure, and refine.
//
// arrayLen is the STREAM working-set length in float64 elements (keep it
// well above cache size); iters the best-of trials per point.
func CharacterizeHost(arrayLen, iters int) (*Characterization, error) {
	maxThreads := runtime.GOMAXPROCS(0)
	sweep, err := mbench.StreamHostSweep(mbench.Copy, maxThreads, arrayLen, iters)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: host STREAM: %w", err)
	}
	c := &Characterization{
		System:       "host",
		CoresPerNode: maxThreads,
		TotalCores:   maxThreads,
	}
	if maxThreads >= 3 {
		mem, err := mbench.FitStream(sweep)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: host STREAM fit: %w", err)
		}
		c.Mem = mem
	} else {
		// Too few points for the two-line fit: degenerate single-slope
		// model from the measured point(s).
		bw := sweep[len(sweep)-1].BandwidthMBps
		c.Mem.A1 = bw / float64(sweep[len(sweep)-1].Threads)
		c.Mem.A2 = c.Mem.A1
		c.Mem.A3 = float64(maxThreads + 1)
		c.Mem.R2 = 1
	}
	c.FitQuality.MemR2 = c.Mem.R2

	// Intra-"node" message timing from the goroutine PingPong over a size
	// sweep; a single host has no inter-node link, so the intra link
	// stands in for both (ranks never span nodes here).
	var pts []mbench.PingPongPoint
	for _, size := range []int{0, 64, 1024, 16384, 262144, 1 << 20} {
		us, err := mbench.PingPongHost(size, 400)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: host PingPong: %w", err)
		}
		pts = append(pts, mbench.PingPongPoint{Bytes: float64(size), TimeUS: us})
	}
	link, line, err := mbench.FitPingPong(pts)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: host PingPong fit: %w", err)
	}
	c.Intra = link
	c.Inter = link
	sortByBytes(pts)
	c.RawIntra = pts
	c.RawInter = pts
	c.FitQuality.IntraR2 = line.R2
	c.FitQuality.InterR2 = line.R2
	return c, nil
}

// HostSystem wraps a host characterization as a machine.System so the
// simulator and cost tooling can treat the local machine as one more
// catalog entry (price zero: you already own it).
func HostSystem(c *Characterization) *machine.System {
	return &machine.System{
		Name:         "Local host",
		Abbrev:       "host",
		CPU:          runtime.GOARCH,
		TotalCores:   c.TotalCores,
		CoresPerNode: c.CoresPerNode,
		VCPUsPerCore: 1,
		Mem: machine.MemoryModel{
			A1: c.Mem.A1, A2: c.Mem.A2, A3: c.Mem.A3,
			HTEfficiency: 1,
		},
		InterNode:           c.Inter,
		IntraNode:           c.Intra,
		NoiseCV:             0.02,
		PricePerNodeHourUSD: 0,
	}
}
