// Package perfmodel implements the paper's primary contribution: the
// performance models of Section II-D that predict LBM throughput on a
// candidate system from microbenchmark characterization alone.
//
// Two predictors are provided, exactly as the paper evaluates:
//
//   - The direct model consumes the actual parallel decomposition — every
//     task's byte count from Eq. 9 and its real halo messages — and prices
//     them with the fitted two-line bandwidth curve (Eq. 8) and raw
//     PingPong timings (interpolated, as the paper's direct model does).
//
//   - The generalized model knows only scalar workload descriptors (total
//     points, serial bytes) and estimates the decomposition a priori via
//     the load-imbalance law z(n) (Eqs. 10-11), the halo-size law
//     (Eqs. 13-14) and the message-event law (Eq. 15), pricing
//     communication with the linear model (Eqs. 12, 16).
//
// Both combine memory and communication as T = max_j(t_mem) + max_j(t_comm)
// (Eq. 6) and report throughput in MFLUPS (Eq. 7). The formula is written
// once; the tiers differ only in where a Characterization's parameters
// come from — the microbenchmark fits (Characterize, Tier 1), the catalog
// row's spec sheet (SpecSheet, Tier 0) or a table's noiseless reference,
// whose output a measured efficiency scales (Table, Tier 2).
package perfmodel

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/mbench"
	"repro/internal/simcloud"
	"repro/internal/units"
)

// Characterization holds everything the models know about one system —
// all of it obtained from microbenchmarks (Characterize) or from the
// published catalog row (SpecSheet), never from the machine's
// ground-truth behavioural models.
type Characterization struct {
	System       string
	CoresPerNode int
	TotalCores   int

	Mem        fit.TwoLine       // Eq. 8 fit of the STREAM Copy sweep
	Inter      machine.LinkModel // Eq. 12 fit, inter-node
	Intra      machine.LinkModel // Eq. 12 fit, intra-node
	FitQuality struct {
		MemR2, InterR2, IntraR2 float64
	}

	// Raw PingPong sweeps, kept for the direct model's interpolation and
	// sorted by Bytes, as interpolateUS requires.
	RawInter []mbench.PingPongPoint
	RawIntra []mbench.PingPongPoint

	// PCIe is the fitted host-device link on accelerator instances (nil
	// for CPU systems); RawPCIe the sweep behind it, sorted by Bytes. They
	// price Eq. 2's t_CPU-GPU term.
	PCIe    *machine.LinkModel
	RawPCIe []mbench.PingPongPoint

	// PeakGFLOPS is the per-rank compute ceiling, GFLOP/s: a rank's step
	// lasts at least its points' D3Q19 operations at this rate. SpecSheet
	// sets it from the clock; Characterize leaves it 0, no ceiling.
	PeakGFLOPS float64
}

// Characterize benchmarks a modeled system: a STREAM thread sweep fitted
// with the two-line model and PingPong size sweeps (intra- and inter-node)
// fitted with the linear model. samples controls averaging per point; rng
// may be nil for noiseless characterization.
func Characterize(sys *machine.System, samples int, rng *rand.Rand) (*Characterization, error) {
	c := &Characterization{
		System:       sys.Abbrev,
		CoresPerNode: sys.CoresPerNode,
		TotalCores:   sys.TotalCores,
	}
	stream := mbench.StreamSweepSim(sys, false, samples, rng)
	mem, err := mbench.FitStream(stream)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: STREAM fit for %s: %w", sys.Abbrev, err)
	}
	c.Mem = mem
	c.FitQuality.MemR2 = mem.R2

	sizes := mbench.DefaultMessageSizes()
	c.RawInter = mbench.PingPongSweepSim(sys, false, sizes, samples, rng)
	inter, interLine, err := mbench.FitPingPong(c.RawInter)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: inter-node PingPong fit for %s: %w", sys.Abbrev, err)
	}
	c.Inter = inter
	c.FitQuality.InterR2 = interLine.R2

	c.RawIntra = mbench.PingPongSweepSim(sys, true, sizes, samples, rng)
	intra, intraLine, err := mbench.FitPingPong(c.RawIntra)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: intra-node PingPong fit for %s: %w", sys.Abbrev, err)
	}
	c.Intra = intra
	c.FitQuality.IntraR2 = intraLine.R2

	if sys.GPU != nil {
		c.RawPCIe = mbench.PCIeSweepSim(sys, sizes, samples, rng)
		pcie, _, err := mbench.FitPingPong(c.RawPCIe)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: PCIe fit for %s: %w", sys.Abbrev, err)
		}
		c.PCIe = &pcie
	}
	sortByBytes(c.RawInter)
	sortByBytes(c.RawIntra)
	sortByBytes(c.RawPCIe)
	return c, nil
}

// sortByBytes orders a PingPong sweep by message size, once, for
// interpolateUS. It runs after the fits, which read the sweep in the
// order it was measured.
func sortByBytes(pts []mbench.PingPongPoint) {
	slices.SortStableFunc(pts, func(a, b mbench.PingPongPoint) int { return cmp.Compare(a.Bytes, b.Bytes) })
}

// interpolateUS returns the message time in µs for a payload of m bytes from
// raw PingPong points by piecewise-linear interpolation, extrapolating the
// last segment beyond the sweep — how the paper's direct model uses
// "PingPong measurement raw data". pts must be sorted by Bytes (the
// Characterization's sweeps are); they are read in place. Without points
// (a spec sheet has no sweeps) the message is priced on link, Eq. 12.
func interpolateUS(pts []mbench.PingPongPoint, link machine.LinkModel, m float64) float64 {
	if len(pts) == 0 {
		return link.TimeUS(m)
	}
	if m <= pts[0].Bytes {
		return pts[0].TimeUS
	}
	for i := 1; i < len(pts); i++ {
		if m <= pts[i].Bytes {
			a, b := pts[i-1], pts[i]
			frac := (m - a.Bytes) / (b.Bytes - a.Bytes)
			return a.TimeUS + frac*(b.TimeUS-a.TimeUS)
		}
	}
	// Extrapolate from the last two points.
	a, b := pts[len(pts)-2], pts[len(pts)-1]
	slope := (b.TimeUS - a.TimeUS) / (b.Bytes - a.Bytes)
	return b.TimeUS + slope*(m-b.Bytes)
}

// Prediction is one model evaluation for a workload at a rank count.
type Prediction struct {
	Model  string // "direct" or "generalized"
	System string
	Ranks  int

	SecondsPerStep float64
	MFLUPS         float64

	// Composition of the gating task's time (Figures 9 and 10). For the
	// direct model IntraS/InterS are populated; for the generalized model
	// CommBandwidthS/CommLatencyS split Eq. 16's two terms. CPUGPUs is
	// Eq. 2's host-device staging term on accelerator instances.
	MemS           float64
	IntraS         float64
	InterS         float64
	CPUGPUs        float64
	CommBandwidthS float64
	CommLatencyS   float64

	// Provenance (DESIGN.md §13): which accuracy tier produced the
	// number and how far the backend's data had to stretch to do it.
	// All fields are comparable, so Prediction keeps struct equality.
	Tier string
	// Extrapolated is set when the prediction leaves the backend's
	// data: outside the box its rows span (Tier 2) or past the
	// characterized instance's core count (Tier 1 generalized model).
	Extrapolated bool
	// FitResidual (Tier 1 only) is 1 − min(R²) over the calibrated
	// fits — the worst fit's unexplained variance.
	FitResidual float64
	// Confidence brackets MFLUPS with the tier's own error model.
	Confidence Band
}

// predictDirect is the direct-model implementation behind Predict.
func (c *Characterization) predictDirect(w simcloud.Workload, occupancy float64) (Prediction, error) {
	ranks := len(w.Tasks)
	if ranks == 0 {
		return Prediction{}, fmt.Errorf("perfmodel: empty workload %q", w.Name)
	}
	if occupancy < 0 || occupancy > 1 {
		return Prediction{}, fmt.Errorf("perfmodel: occupancy %g outside [0,1]", occupancy)
	}
	nodeOf := func(task int) int { return task / c.CoresPerNode }
	// Points are assumed spread evenly over tasks for the compute ceiling.
	flopS := c.flopS(float64(w.Points) / float64(ranks))

	var maxMem, maxComm, maxIntra, maxInter, maxPCIe float64
	for t := range w.Tasks {
		// Tasks on t's node under the same block placement the runs use:
		// full nodes, then the remainder on the last.
		k := float64(min(c.CoresPerNode, ranks-nodeOf(t)*c.CoresPerNode))
		total := k + occupancy*float64(c.CoresPerNode-int(k))
		share := units.MBpsToBps(c.Mem.Eval(total) / total) // bytes/s available to this task
		memS := w.Tasks[t].Bytes / share

		var intraS, interS, pcieS float64
		for _, msg := range w.Tasks[t].Sends {
			if nodeOf(msg.Peer) == nodeOf(t) {
				intraS += 2 * units.MicrosToSeconds(interpolateUS(c.RawIntra, c.Intra, msg.Bytes))
			} else {
				interS += 2 * units.MicrosToSeconds(interpolateUS(c.RawInter, c.Inter, msg.Bytes))
			}
			if c.PCIe != nil {
				// Eq. 2's t_CPU-GPU: every halo message is staged through
				// host memory on the way out and back in.
				pcieS += 2 * units.MicrosToSeconds(interpolateUS(c.RawPCIe, *c.PCIe, msg.Bytes))
			}
		}
		maxMem = math.Max(maxMem, memS)
		maxComm = math.Max(maxComm, intraS+interS+pcieS)
		maxIntra = math.Max(maxIntra, intraS)
		maxInter = math.Max(maxInter, interS)
		maxPCIe = math.Max(maxPCIe, pcieS)
	}
	p := Prediction{
		Model: ModelDirect, System: c.System, Ranks: ranks,
		SecondsPerStep: math.Max(maxMem, flopS) + maxComm,
		MemS:           maxMem, IntraS: maxIntra, InterS: maxInter, CPUGPUs: maxPCIe,
	}
	p.MFLUPS = float64(w.Points) / p.SecondsPerStep / 1e6
	return p, nil
}

// WorkloadSummary is the scalar description the generalized model works
// from — everything a user can state about a simulation before
// decomposing it.
type WorkloadSummary struct {
	Name        string
	Points      int     // N, total fluid points
	BytesSerial float64 // n_bytes-serial of Eq. 10
}

// GeneralModel carries the empirically fitted laws the generalized
// predictor needs beyond a system characterization.
type GeneralModel struct {
	Z      fit.LogLaw // Eq. 11 load-imbalance law
	Events EventsLaw  // Eq. 15 message-event law

	// PointCommBytes is n_point-comm-bytes of Eq. 13: bytes exchanged per
	// boundary point. For D3Q19 halos roughly five distributions cross a
	// face per point; DefaultPointCommBytes captures that.
	PointCommBytes float64
}

// DefaultPointCommBytes is the Eq. 13 per-boundary-point payload used when
// no calibration is available: five crossing distributions of 8 bytes.
const DefaultPointCommBytes = 40

// MaxNeighbors is the cap w of Eq. 14: a task in a cubic decomposition
// has at most 6 face neighbors.
const MaxNeighbors = 6

// EventsLaw is Eq. 15: n_max-events = 4 log2((k1/n_n + k2)(n - n_n) + 1).
type EventsLaw struct {
	K1, K2 float64
	SSE    float64
	R2     float64
}

// Eval returns the modeled maximum message events for n tasks on nn nodes.
func (e EventsLaw) Eval(ntasks, nn float64) float64 {
	if ntasks <= nn {
		return 0
	}
	arg := (e.K1/nn+e.K2)*(ntasks-nn) + 1
	if arg <= 1 {
		return 0
	}
	return 4 * math.Log2(arg)
}

// predictGeneral is the generalized-model implementation behind Predict.
// Rank counts may exceed the characterized instance's size — the paper's
// Figure 11 extrapolates the aorta to 2048 cores on 144-core cloud
// instances this way; such predictions are flagged Extrapolated.
func (c *Characterization) predictGeneral(ws WorkloadSummary, g GeneralModel, ranks int) (Prediction, error) {
	if ranks < 1 {
		return Prediction{}, fmt.Errorf("perfmodel: ranks %d must be positive", ranks)
	}
	if ws.Points <= 0 || ws.BytesSerial <= 0 {
		return Prediction{}, fmt.Errorf("perfmodel: workload summary %q incomplete", ws.Name)
	}
	n := float64(ranks)
	z := g.Z.Eval(n)
	maxPoints := z * float64(ws.Points) / n

	// Eq. 10: busiest task's bytes; memory time at its bandwidth share.
	maxBytes := z * ws.BytesSerial / n
	k := math.Min(n, float64(c.CoresPerNode))
	share := units.MBpsToBps(c.Mem.Eval(k) / k)
	memS := maxBytes / share

	var commBW, commLat, pcieS float64
	if ranks > 1 {
		// Eq. 14 then Eq. 13.
		w := math.Min(math.Log2(n), MaxNeighbors)
		pcb := g.PointCommBytes
		if pcb == 0 {
			pcb = DefaultPointCommBytes
		}
		mMaxTotal := w / MaxNeighbors * math.Pow(maxPoints, 2.0/3.0) * 2 * pcb
		nn := math.Ceil(n / float64(c.CoresPerNode))
		if c.PCIe != nil {
			// Eq. 2's t_CPU-GPU: the whole halo is staged through host
			// memory on the way out and back in, priced on the fitted
			// PCIe link with one staging event per neighbor pair.
			pcieS = 2*mMaxTotal/units.MBpsToBps(c.PCIe.BandwidthMBps) + 2*w*units.MicrosToSeconds(c.PCIe.LatencyUS)
		}
		if nn >= 2 {
			// Eq. 15 event count, then Eq. 16 split into its bandwidth and
			// latency terms (Figure 10), priced on the interconnect.
			events := g.Events.Eval(n, nn)
			commBW = mMaxTotal / units.MBpsToBps(c.Inter.BandwidthMBps)
			commLat = events * units.MicrosToSeconds(c.Inter.LatencyUS)
		} else {
			// The job fits one node: no interconnect is crossed, so the
			// halo moves on the intra-node link. The paper's multi-node
			// experiments never hit this branch, but single-node cloud
			// jobs are common and pricing them at interconnect latency
			// would be grossly pessimistic.
			events := 4 * math.Min(math.Log2(n)*2, 2*w)
			commBW = mMaxTotal / units.MBpsToBps(c.Intra.BandwidthMBps)
			commLat = events * units.MicrosToSeconds(c.Intra.LatencyUS)
		}
	}

	p := Prediction{
		Model: ModelGeneral, System: c.System, Ranks: ranks,
		SecondsPerStep: math.Max(memS, c.flopS(maxPoints)) + commBW + commLat + pcieS,
		MemS:           memS,
		CPUGPUs:        pcieS,
		CommBandwidthS: commBW,
		CommLatencyS:   commLat,
	}
	p.MFLUPS = float64(ws.Points) / p.SecondsPerStep / 1e6
	return p, nil
}

// flopS is the compute-ceiling time of a rank updating n points: the
// D3Q19 BGK operation count at PeakGFLOPS, or 0 when no ceiling is set.
func (c *Characterization) flopS(n float64) float64 {
	if c.PeakGFLOPS <= 0 {
		return 0
	}
	return n * flopsPerPoint / (c.PeakGFLOPS * 1e9)
}
