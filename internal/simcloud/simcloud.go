// Package simcloud executes a decomposed LBM workload on a modeled system
// (internal/machine) and reports the timings and MFLUPS a real run would
// produce. It is this reproduction's stand-in for the paper's hardware
// testbeds: per timestep every task pays for its memory traffic at its
// share of the node's bandwidth and for its halo messages on the intra- or
// inter-node link, the slowest task gates the step (bulk-synchronous halo
// exchange), and run-to-run noise is injected per the system's measured
// variability. The performance models of internal/perfmodel are judged
// against these "measurements".
package simcloud

import (
	"fmt"
	"math/rand"

	"repro/internal/decomp"
	"repro/internal/machine"
)

// Message is one halo transfer charged to a task each timestep.
type Message struct {
	Peer  int
	Bytes float64
}

// TaskSpec is the simulator's view of one task's per-timestep work.
type TaskSpec struct {
	Bytes float64   // memory bytes accessed per timestep
	Sends []Message // outgoing halo messages per timestep
}

// Workload is a fully decomposed per-timestep work description.
type Workload struct {
	Name   string
	Points int // total fluid points (for MFLUPS)
	Tasks  []TaskSpec
}

// FromPartition converts a decomposition into a simulator workload.
func FromPartition(name string, points int, p *decomp.Partition) Workload {
	w := Workload{Name: name, Points: points, Tasks: make([]TaskSpec, p.NTasks)}
	for t := range p.Tasks {
		w.Tasks[t].Bytes = p.Tasks[t].Bytes
		if sends := p.Tasks[t].Sends; len(sends) > 0 { // none stays nil
			w.Tasks[t].Sends = make([]Message, len(sends))
			for i, h := range sends {
				w.Tasks[t].Sends[i] = Message{Peer: h.Peer, Bytes: h.Bytes()}
			}
		}
	}
	return w
}

// KernelOverhead inflates simulated memory time over the pure
// bytes/bandwidth optimum: instruction issue, partial cache-line use and
// synchronization that a bandwidth-only model cannot see. It is the reason
// the performance models "overpredicted ... by a consistent amount in all
// cases" in the paper — a bias the iterative refinement loop learns away.
const KernelOverhead = 1.18

// TaskTiming breaks one task's per-timestep cost into the components the
// paper's Figures 9 and 10 visualize, plus the CPU-GPU transfer term of
// Eq. 2 on accelerator instances.
type TaskTiming struct {
	MemS    float64 // memory access time, seconds
	IntraS  float64 // intra-node communication time
	InterS  float64 // inter-node communication time
	CPUGPUs float64 // host-device staging time (GPU instances only)
	Events  int     // message events (sends + receives)
}

// Total returns the task's full per-timestep cost.
func (t TaskTiming) Total() float64 { return t.MemS + t.IntraS + t.InterS + t.CPUGPUs }

// Result reports one simulated run.
type Result struct {
	Workload  string
	System    string
	Ranks     int
	Steps     int
	StepS     float64      // noiseless seconds per timestep (slowest task)
	Seconds   float64      // total wall time including noise
	MFLUPS    float64      // Eq. 7 throughput
	PerTask   []TaskTiming // noiseless per-task breakdown
	Slowest   int          // index of the gating task
	CostUSD   float64      // node-hour cost of the run on this system
	NodesUsed int
}

// Options tunes a simulated run beyond the defaults.
type Options struct {
	// SharedOccupancy models multi-tenant nodes, the case the paper's
	// Discussion flags: the fraction (0..1) of the node's cores NOT owned
	// by this job that other users keep busy. Their memory traffic
	// contends with ours: the node bandwidth curve is evaluated at the
	// total active core count and shared evenly. 0 (the default) is the
	// paper's measured node-exclusive setting.
	SharedOccupancy float64
}

// Validate checks option ranges.
func (o Options) Validate() error {
	if o.SharedOccupancy < 0 || o.SharedOccupancy > 1 {
		return fmt.Errorf("simcloud: shared occupancy %g outside [0,1]", o.SharedOccupancy)
	}
	return nil
}

// Run simulates the workload on sys for the given number of timesteps
// with default options. Tasks are placed one per physical core,
// block-filling nodes. rng drives the system's noise processes; a nil rng
// runs noiselessly.
func Run(w Workload, sys *machine.System, steps int, rng *rand.Rand) (Result, error) {
	return RunOpts(w, sys, steps, rng, Options{})
}

// RunOpts simulates the workload with explicit options.
func RunOpts(w Workload, sys *machine.System, steps int, rng *rand.Rand, opt Options) (Result, error) {
	ranks := len(w.Tasks)
	if ranks == 0 {
		return Result{}, fmt.Errorf("simcloud: workload %q has no tasks", w.Name)
	}
	if steps <= 0 {
		return Result{}, fmt.Errorf("simcloud: steps %d must be positive", steps)
	}
	if ranks > sys.MaxRanks() {
		return Result{}, fmt.Errorf("simcloud: %d ranks exceed %s's %d cores", ranks, sys.Abbrev, sys.MaxRanks())
	}
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}

	nodeOf := func(task int) int { return task / sys.CoresPerNode }
	nodes := sys.Nodes(ranks)

	// Tasks per node under block placement.
	perNode := make([]int, nodes)
	for t := 0; t < ranks; t++ {
		perNode[nodeOf(t)]++
	}

	// Per-node effective bandwidth for this run: the deterministic
	// two-regime curve, with the system's post-knee contention variance
	// drawn once per node per run (the "not all cores have separate
	// memory channels" effect the paper observed on CSP-2).
	nodeBW := make([]float64, nodes) // bytes per second per task share
	for n := 0; n < nodes; n++ {
		k := perNode[n]
		// Other tenants' cores contend for the same memory subsystem: the
		// curve is evaluated at the total active count and shared evenly
		// (the paper's "full or partial usage of the other cores").
		others := opt.SharedOccupancy * float64(sys.CoresPerNode-k)
		total := float64(k) + others
		bw := sys.Mem.Bandwidth(total)
		if rng != nil {
			bw = sys.SampleBandwidth(int(total+0.5), false, rng)
		}
		nodeBW[n] = bw * 1e6 / total
	}

	res := Result{
		Workload: w.Name, System: sys.Abbrev, Ranks: ranks, Steps: steps,
		PerTask: make([]TaskTiming, ranks), NodesUsed: nodes,
	}
	const mb = 1e6
	for t := range w.Tasks {
		tt := &res.PerTask[t]
		tt.MemS = w.Tasks[t].Bytes / nodeBW[nodeOf(t)] * KernelOverhead
		// Halo exchange: each send has a matching receive of equal size
		// (decomp halos are symmetric), both serialized onto the link.
		for _, msg := range w.Tasks[t].Sends {
			link := sys.InterNode
			intra := nodeOf(msg.Peer) == nodeOf(t)
			if intra {
				link = sys.IntraNode
			}
			per := 2 * (msg.Bytes/(link.BandwidthMBps*mb) + link.LatencyUS*1e-6)
			if intra {
				tt.IntraS += per
			} else {
				tt.InterS += per
			}
			tt.Events += 2
			// On accelerator instances the halo is staged through host
			// memory: device->host before the send, host->device after
			// the receive — Eq. 2's t_CPU-GPU.
			if sys.GPU != nil {
				tt.CPUGPUs += 2 * (msg.Bytes/(sys.GPU.PCIe.BandwidthMBps*mb) + sys.GPU.PCIe.LatencyUS*1e-6)
			}
		}
		if tt.Total() > res.StepS {
			res.StepS = tt.Total()
			res.Slowest = t
		}
	}

	res.Seconds = res.StepS * float64(steps)
	if rng != nil {
		res.Seconds *= sys.RunNoise(rng)
	}
	res.MFLUPS = float64(w.Points) * float64(steps) / res.Seconds / 1e6
	res.CostUSD = sys.JobCost(ranks, res.Seconds)
	return res, nil
}

// MaxTiming returns the gating task's timing breakdown.
func (r Result) MaxTiming() TaskTiming { return r.PerTask[r.Slowest] }
