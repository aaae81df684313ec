package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/decomp"
	"repro/internal/fit"
	"repro/internal/lbm"
)

// CalibrateGeneral fits the generalized model's empirical laws from
// decompositions of a reference lattice over a sweep of task counts —
// the paper's "fits of Eq. 11 to prior HARVEY decomposition data": one
// decomp.RCBSweep, then FitGeneral over its partitions.
func CalibrateGeneral(t decomp.Topology, m lbm.AccessModel, taskCounts []int, coresPerNode int) (GeneralModel, error) {
	parts, err := decomp.RCBSweep(t, taskCounts, m)
	if err != nil {
		return GeneralModel{}, fmt.Errorf("perfmodel: calibration decomposition: %w", err)
	}
	return FitGeneral(parts, t.Topology().N(), coresPerNode)
}

// FitGeneral is the fit of CalibrateGeneral over decompositions the caller
// already has, of a lattice of the given fluid-point count: the z-law and
// the event law, and the per-boundary-point communication payload of
// Eq. 13 calibrated against the measured halo sizes. coresPerNode fixes
// the node counts entering the event law (Eq. 15).
func FitGeneral(parts []*decomp.Partition, latticePoints, coresPerNode int) (GeneralModel, error) {
	if len(parts) < 3 {
		return GeneralModel{}, fmt.Errorf("perfmodel: need at least 3 task counts to calibrate, have %d", len(parts))
	}
	if coresPerNode < 1 {
		return GeneralModel{}, fmt.Errorf("perfmodel: coresPerNode %d must be positive", coresPerNode)
	}
	var (
		ns, zs      []float64 // imbalance observations (Eq. 10)
		evN, evNN   []float64 // event-law inputs (multi-node configs only)
		evCounts    []float64 // measured max inter-node events
		pcbEstimate []float64 // Eq. 13 payload back-solved per count
	)
	points := float64(latticePoints)
	for _, p := range parts {
		n := float64(p.NTasks)
		z := p.Imbalance()
		ns = append(ns, n)
		zs = append(zs, z)
		// The communication laws model inter-node traffic (Eq. 16 prices
		// everything on the interconnect), so they are calibrated against
		// placement-aware inter-node observations from multi-node configs.
		nn := math.Ceil(n / float64(coresPerNode))
		if nn >= 2 {
			interBytes, interEvents := p.InterStats(coresPerNode)
			evN = append(evN, n)
			evNN = append(evNN, nn)
			evCounts = append(evCounts, float64(interEvents))

			// Back-solve Eq. 13 for n_point-comm-bytes from the measured
			// busiest-task inter-node payload.
			w := math.Min(math.Log2(n), MaxNeighbors)
			geom := w / MaxNeighbors * math.Pow(z*points/n, 2.0/3.0) * 2
			if geom > 0 && interBytes > 0 {
				pcbEstimate = append(pcbEstimate, interBytes/geom)
			}
		}
	}
	zLaw, err := fit.LogLawLSQ(ns, zs)
	if err != nil {
		return GeneralModel{}, fmt.Errorf("perfmodel: z-law fit: %w", err)
	}
	// Eq. 11 is monotone non-decreasing only for c1 >= 0; clamp tiny
	// negative fits from nearly flat imbalance data.
	if zLaw.C1 < 0 {
		zLaw.C1 = 0
	}
	g := GeneralModel{Z: zLaw, PointCommBytes: DefaultPointCommBytes}
	if len(evN) >= 2 {
		events, err := FitEvents(evN, evNN, evCounts)
		if err != nil {
			return GeneralModel{}, err
		}
		g.Events = events
	} else {
		// No multi-node calibration data: fall back to a generic law so
		// extrapolated predictions remain usable; refinement against
		// measurements corrects the bias later.
		g.Events = DefaultEventsLaw()
	}
	if len(pcbEstimate) > 0 {
		g.PointCommBytes = fit.GeoMean(pcbEstimate)
	}
	return g, nil
}

// DefaultEventsLaw returns generic Eq. 15 parameters used when no
// multi-node decomposition data is available for calibration.
func DefaultEventsLaw() EventsLaw { return EventsLaw{K1: 2, K2: 0.5} }

// FitEvents fits Eq. 15's (k1, k2) to measured maximum event counts by
// SSE minimization over a log-spaced grid with golden-section refinement
// (the same strategy the package uses for the other conditionally
// nonlinear fits).
func FitEvents(ntasks, nnodes, events []float64) (EventsLaw, error) {
	if len(ntasks) < 2 || len(ntasks) != len(nnodes) || len(ntasks) != len(events) {
		return EventsLaw{}, fmt.Errorf("perfmodel: bad event-law inputs (%d,%d,%d)", len(ntasks), len(nnodes), len(events))
	}
	sseFor := func(k1, k2 float64) float64 {
		e := EventsLaw{K1: k1, K2: k2}
		var sse float64
		for i := range ntasks {
			d := e.Eval(ntasks[i], nnodes[i]) - events[i]
			sse += d * d
		}
		return sse
	}
	best := EventsLaw{SSE: math.Inf(1)}
	// The 65 K2 values are the same on every row of the grid: exponentiate
	// them once, stepping lg2 exactly as the inner loop would.
	var k2s [65]float64
	for i, lg2 := 0, -8.0; lg2 <= 8.0; i, lg2 = i+1, lg2+0.25 {
		k2s[i] = math.Exp(lg2)
	}
	for lg1 := -8.0; lg1 <= 8.0; lg1 += 0.25 {
		k1 := math.Exp(lg1)
		for _, k2 := range k2s {
			if sse := sseFor(k1, k2); sse < best.SSE {
				best = EventsLaw{K1: k1, K2: k2, SSE: sse}
			}
		}
	}
	// Coordinate refinement around the grid optimum.
	for pass := 0; pass < 3; pass++ {
		lg1 := fit.GoldenMin(math.Log(best.K1)-0.3, math.Log(best.K1)+0.3, 1e-6, func(x float64) float64 {
			return sseFor(math.Exp(x), best.K2)
		})
		best.K1 = math.Exp(lg1)
		lg2 := fit.GoldenMin(math.Log(best.K2)-0.3, math.Log(best.K2)+0.3, 1e-6, func(x float64) float64 {
			return sseFor(best.K1, math.Exp(x))
		})
		best.K2 = math.Exp(lg2)
	}
	best.SSE = sseFor(best.K1, best.K2)
	// R² against the observed events.
	mean := fit.Mean(events)
	var sst float64
	for _, e := range events {
		d := e - mean
		sst += d * d
	}
	if sst > 0 {
		best.R2 = 1 - best.SSE/sst
	} else if best.SSE == 0 {
		best.R2 = 1
	}
	return best, nil
}
