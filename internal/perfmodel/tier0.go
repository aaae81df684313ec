package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/simcloud"
	"repro/internal/units"
)

// PhysicsBackend is Tier 0: a roofline-plus-communication prediction
// built from the catalog row alone — published memory bandwidth, clock
// rate, nominal interconnect Gbps — with zero fitted parameters. It is
// available for every system and never needs recalibration, which makes
// it the TierAuto floor; the price is that it misses everything the
// fits capture (sustained-vs-published bandwidth, link latency, load
// imbalance), so it carries the widest confidence band.
type PhysicsBackend struct {
	Sys *machine.System
}

// NewPhysicsBackend wraps a catalog row as the Tier 0 backend.
func NewPhysicsBackend(sys *machine.System) *PhysicsBackend {
	return &PhysicsBackend{Sys: sys}
}

// Tier0ConfidenceRel is the fixed relative half-width of Tier 0's
// confidence band: the structural uncertainty of predicting from
// published specs alone, bracketed by the spread the paper reports
// between published and sustained bandwidth.
const Tier0ConfidenceRel = 0.40

// flopsPerCycle is the assumed per-core double-precision issue width
// (one 512-bit FMA per cycle): spec-sheet physics, not a fit.
const flopsPerCycle = 16

// Tier returns Tier0Physics.
func (b *PhysicsBackend) Tier() string { return Tier0Physics }

// Covers reports whether Tier 0 can serve the request: any decomposed
// workload or workload summary, as long as no calibrated Terms ride
// along (terms are Tier 1 artifacts — they come out of the measured
// feedback loop).
func (b *PhysicsBackend) Covers(req Request) bool {
	if len(req.Terms) > 0 {
		return false
	}
	return req.Workload != nil || req.Summary != nil
}

// nodalBWBps returns the published nodal memory bandwidth in bytes/s.
// GPU instances publish per-device bandwidth with one rank per device,
// so the nodal figure is the device figure times devices per node.
func (b *PhysicsBackend) nodalBWBps() float64 {
	bw := units.MBpsToBps(b.Sys.PublishedMemBWMBps)
	if b.Sys.GPU != nil {
		bw *= float64(b.Sys.GPU.PerNode)
	}
	return bw
}

// interBWBps returns the nominal interconnect bandwidth in bytes/s.
func (b *PhysicsBackend) interBWBps() float64 {
	return b.Sys.InterconnectGbps * 1e9 / 8
}

// peakPerCore returns the spec-sheet per-core ceiling in GFLOP/s: cycles
// per nanosecond times FLOPs per cycle.
func (b *PhysicsBackend) peakPerCore() float64 { return b.Sys.ClockGHz * flopsPerCycle }

// flopS returns the compute-ceiling time of one core updating n points:
// the D3Q19 BGK operation count against the spec-sheet per-core peak.
// The kernel's byte side stays zero here; memory time is priced from the
// workload's own byte counts.
func (b *PhysicsBackend) flopS(n float64) float64 {
	core := Machine{PeakGFLOPS: b.peakPerCore()}
	return FlopTimeS(D3Q19BGK(0), core, n)
}

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
// the paper could drop it; Tier 0 prices it from the spec sheet, and the
// term selector is offered it as FlopTerm and verifies that empirically.
func FlopTimeS(k Kernel, m Machine, n float64) float64 {
	return n * k.FlopsPerPoint / (m.PeakGFLOPS * 1e9)
}

// Predict evaluates the Tier 0 model: per-task time is the roofline
// max(memory, compute) plus communication priced at nominal link
// bandwidth with zero latency (no latency spec is published). The
// missing latency term is Tier 0's signature bias — it underpredicts
// communication at scale, which the per-tier MAPE report surfaces.
func (b *PhysicsBackend) Predict(req Request) (Prediction, error) {
	if len(req.Terms) > 0 {
		return Prediction{}, fmt.Errorf("perfmodel: terms apply to the calibrated tier only")
	}
	model, err := req.model()
	if err != nil {
		return Prediction{}, err
	}
	var p Prediction
	if model == ModelDirect {
		p, err = b.predictDirect(*req.Workload, req.Occupancy)
	} else {
		p, err = b.predictGeneral(*req.Summary, req.Ranks)
	}
	if err != nil {
		return Prediction{}, err
	}
	p.Tier = Tier0Physics
	p.Confidence = band(p.MFLUPS, Tier0ConfidenceRel)
	return p, nil
}

// predictDirect prices an actual decomposition with published numbers.
func (b *PhysicsBackend) predictDirect(w simcloud.Workload, occupancy float64) (Prediction, error) {
	ranks := len(w.Tasks)
	if ranks == 0 {
		return Prediction{}, fmt.Errorf("perfmodel: empty workload %q", w.Name)
	}
	if occupancy < 0 || occupancy > 1 {
		return Prediction{}, fmt.Errorf("perfmodel: occupancy %g outside [0,1]", occupancy)
	}
	cores := b.Sys.CoresPerNode
	nodeOf := func(task int) int { return task / cores }
	perNode := make(map[int]int)
	for t := 0; t < ranks; t++ {
		perNode[nodeOf(t)]++
	}
	nodalBW := b.nodalBWBps()
	interBW := b.interBWBps()
	// Roofline: a task cannot run faster than its compute ceiling either;
	// points are assumed spread evenly over tasks.
	flopS := b.flopS(float64(w.Points) / float64(ranks))

	var maxStep, maxMem, maxIntra, maxInter float64
	for t := range w.Tasks {
		k := float64(perNode[nodeOf(t)])
		sharers := k + occupancy*float64(cores-int(k))
		share := nodalBW / math.Max(1, sharers)
		memS := w.Tasks[t].Bytes / share
		gate := math.Max(memS, flopS)

		var intraS, interS float64
		for _, msg := range w.Tasks[t].Sends {
			if nodeOf(msg.Peer) == nodeOf(t) {
				// On-node halo: one copy out, one in, through node memory.
				intraS += 2 * msg.Bytes / nodalBW
			} else {
				interS += 2 * msg.Bytes / interBW
			}
		}
		maxStep = math.Max(maxStep, gate)
		maxMem = math.Max(maxMem, memS)
		maxIntra = math.Max(maxIntra, intraS)
		maxInter = math.Max(maxInter, interS)
	}
	p := Prediction{
		Model: ModelDirect, System: b.Sys.Abbrev, Ranks: ranks,
		SecondsPerStep: maxStep + maxIntra + maxInter,
		MemS:           maxMem, IntraS: maxIntra, InterS: maxInter,
	}
	p.MFLUPS = float64(w.Points) / p.SecondsPerStep / 1e6
	return p, nil
}

// predictGeneral estimates the decomposition a priori with zero fitted
// laws: perfect balance (z = 1), the Eq. 13-14 geometric halo estimate
// with the default per-point payload, and nominal link bandwidth.
func (b *PhysicsBackend) predictGeneral(ws WorkloadSummary, ranks int) (Prediction, error) {
	if ranks < 1 {
		return Prediction{}, fmt.Errorf("perfmodel: ranks %d must be positive", ranks)
	}
	if ws.Points <= 0 || ws.BytesSerial <= 0 {
		return Prediction{}, fmt.Errorf("perfmodel: workload summary %q incomplete", ws.Name)
	}
	n := float64(ranks)
	cores := float64(b.Sys.CoresPerNode)
	share := b.nodalBWBps() / math.Min(n, cores)
	memS := ws.BytesSerial / n / share
	gate := math.Max(memS, b.flopS(float64(ws.Points)/n))

	var commS float64
	if ranks > 1 {
		w := math.Min(math.Log2(n), MaxNeighbors)
		mMaxTotal := w / MaxNeighbors * math.Pow(float64(ws.Points)/n, 2.0/3.0) * 2 * DefaultPointCommBytes
		if math.Ceil(n/cores) >= 2 {
			commS = mMaxTotal / b.interBWBps()
		} else {
			commS = mMaxTotal / b.nodalBWBps()
		}
	}
	p := Prediction{
		Model: ModelGeneral, System: b.Sys.Abbrev, Ranks: ranks,
		SecondsPerStep: gate + commS,
		MemS:           memS,
		CommBandwidthS: commS,
	}
	p.MFLUPS = float64(ws.Points) / p.SecondsPerStep / 1e6
	return p, nil
}
