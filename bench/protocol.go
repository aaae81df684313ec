package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/serve"
)

// The run protocol. BENCHMARK.json repeats the workload and metric tables
// below; bench_test.go fails when the two disagree.
const (
	// repetitions is R: each run measures a workload this many times, each
	// time in a fresh child process after its own set-up. A repetition
	// reports the best decile of its slices (bestDecile) and a run the best
	// repetition (summary.value).
	repetitions = 5

	// defaultSeconds is BENCHMARK.json's run_seconds: the measured time of
	// one run, split evenly over the repetitions.
	defaultSeconds = 15

	// serverSeed is the calibration seed of every server the benchmark
	// builds, and the router's DefaultSeed, so shard keys match cache keys.
	serverSeed = 1

	// openLoopRPS is cluster_mixed's arrival rate, about a quarter of the
	// router's closed-loop capacity on the two-core reference box.
	openLoopRPS = 2000

	// maxGenLagMS is the open-loop generator's health limit: past it the
	// sender, not the system, is shaping the latencies. The reference VM's
	// timer tick is a millisecond, which any sleep may overshoot, and a cold
	// fill can hold a P for a scheduler quantum of ten; five is half that.
	maxGenLagMS = 5.0
)

// sizes are the input sizes of the workloads and ladders. full is what
// BENCHMARK.json measures. smoke is for bench_test.go alone: it drives
// every workload and every ladder end to end in a few seconds, which the
// full sizes cannot, and its numbers mean nothing.
type sizes struct {
	childFlag     string               // what tells a child process to use these sizes
	warmShapes    []serve.WorkloadSpec // predict_warm's two shapes
	mixedShapes   []serve.WorkloadSpec // cluster_mixed's two shapes
	solveScale    float64              // lbm_solve's aorta
	solveSteps    int                  // least steps of an lbm_solve repetition, on each engine
	blockSteps    int                  // steps per lbm_solve block, on each engine
	campaignJobs  int                  // jobs in the fleet_campaign document
	streamElems   int                  // STREAM array length of the kernel ladder
	residentFills int                  // entries filled to weigh the calibration cache
	fillRounds    int                  // times the fill ladder walks its stages
	rungBudget    time.Duration        // time one fast ladder rung is measured for
}

var (
	full = sizes{
		warmShapes:    []serve.WorkloadSpec{{Geometry: "cylinder", Scale: 6}, {Geometry: "aorta", Scale: 8}},
		mixedShapes:   []serve.WorkloadSpec{{Geometry: "cylinder", Scale: 6}, {Geometry: "stenosis", Scale: 6}},
		solveScale:    16,
		solveSteps:    40,
		blockSteps:    8,
		campaignJobs:  24,
		streamElems:   1 << 25,
		residentFills: 64,
		fillRounds:    9,
		rungBudget:    150 * time.Millisecond,
	}
	smoke = sizes{
		childFlag:     "-smoke",
		warmShapes:    []serve.WorkloadSpec{{Geometry: "cylinder", Scale: 5}, {Geometry: "stenosis", Scale: 5}},
		mixedShapes:   []serve.WorkloadSpec{{Geometry: "cylinder", Scale: 5}, {Geometry: "stenosis", Scale: 5}},
		solveScale:    5,
		solveSteps:    2,
		blockSteps:    2,
		campaignJobs:  3,
		streamElems:   1 << 16,
		residentFills: 2,
		fillRounds:    1,
		rungBudget:    2 * time.Millisecond,
	}
	sz = full
)

// workloadDef names one workload. tailPct is the percentile that
// latency_tail_ms reports: the highest of 90, 75 and 50 that leaves at
// least ten samples beyond it in a slice (lbm_solve's blocks of eight
// steps excepted: a step cannot queue). p99 is not on that list: on
// cluster_mixed it falls among the requests queued behind a window's cold
// fills and on predict_warm in the far tail of the batches, and neither
// repeats (spreads of 0.5 and 0.2 over whole windows); bench.latency_p99_ms
// keeps it.
type workloadDef struct {
	Name    string
	Why     string
	tailPct float64
	slice   time.Duration // length of a slice of the window, where ops are shorter than that
	run     func(*child) error
}

var workloads = []workloadDef{
	{"predict_warm", "closed loop over 8 pre-warmed keys: every request is a cache hit, so time goes to net/http, middleware, JSON and Predict", 90, 100 * time.Millisecond, runPredictWarm},
	{"predict_cold", "closed loop of never-seen seeds: every request is a calibration fill and the 64-entry LRU evicts continuously; middleware is under 1% of a request", 75, time.Second, runPredictCold},
	{"cluster_mixed", "open loop at 2000 req/s through the router over four replicas: predict tiers and models, /v1/plan, batches and 0.1% cold fills; latency is timed from the due time", 90, 100 * time.Millisecond, runClusterMixed},
	{"lbm_solve", "aorta@16 (207k fluid points): blocks of 8 serial lbm.Sparse steps, then the same 8 on par.Runner over an nproc-rank RCB, 40 or more on each; no serving layer runs", 75, 0, runLBMSolve},
	{"fleet_campaign", "a seed-generated 24-job campaign document through campaign.Runner.Run on a fresh core.Framework: anatomy preparation against scheduling", 50, 0, runFleetCampaign},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before
// -compare calls it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// metric; an op is a request (the three service workloads), a lattice step
// over the whole domain (lbm_solve) or a campaign job (fleet_campaign).
// On lbm_solve throughput is par.Runner's step rate and the two latencies
// are serial Sparse.Step times, so the two engines stay separable.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer comes from the traced pass, through each module's exported API
// only. A layer the workload never enters reads 0 on that workload.
var perLayer = []metricDef{
	// Hit path: predict_warm (perfmodel, obs, serve) and cluster_mixed
	// (dashboard, cluster).
	{Name: "perfmodel.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "perfmodel.predict_allocs", Unit: "1", Better: "lower"},
	{Name: "perfmodel.predict_tier0_ns", Unit: "ns", Better: "lower"},
	{Name: "perfmodel.predict_tier2_ns", Unit: "ns", Better: "lower"},
	{Name: "dashboard.assess_us", Unit: "us", Better: "lower"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.handler_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.handler_allocs", Unit: "1", Better: "lower"},
	{Name: "serve.overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.loopback_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.socket_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_hit_frac", Unit: "1", Better: "higher"},
	{Name: "serve.shed_total", Unit: "count", Better: "lower"},
	{Name: "cluster.ring_successors_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.handler_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.handler_allocs", Unit: "1", Better: "lower"},
	{Name: "cluster.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.transport_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.retry_total", Unit: "count", Better: "lower"},
	{Name: "cluster.denied_total", Unit: "count", Better: "lower"},
	{Name: "cluster.shard_spread", Unit: "1", Better: "lower"},
	{Name: "bench.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "1", Better: "lower"},
	{Name: "bench.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.allocs_per_op", Unit: "1", Better: "lower"},
	{Name: "bench.cpu_us_per_op", Unit: "us", Better: "lower"},
	// Fill path: predict_cold.
	{Name: "perfmodel.characterize_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.build_geometry_ms", Unit: "ms", Better: "lower"},
	{Name: "lbm.new_sparse_ms", Unit: "ms", Better: "lower"},
	{Name: "perfmodel.calibrate_general_ms", Unit: "ms", Better: "lower"},
	{Name: "decomp.rcb_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.cache_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.coalesced_total", Unit: "count", Better: "lower"},
	// Kernels: lbm_solve.
	{Name: "lbm.sparse_step_mflups", Unit: "MFLUPS", Better: "higher"},
	{Name: "lbm.sparse_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "mbench.stream_copy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "lbm.sparse_roofline_frac", Unit: "1", Better: "higher"},
	{Name: "lbm.proxy_soa_aa_unrolled_mflups", Unit: "MFLUPS", Better: "higher"},
	{Name: "lbm.proxy_aos_ab_mflups", Unit: "MFLUPS", Better: "higher"},
	{Name: "lbm.step_allocs", Unit: "1", Better: "lower"},
	{Name: "decomp.rcb_nproc_ms", Unit: "ms", Better: "lower"},
	{Name: "decomp.rcb_128_ms", Unit: "ms", Better: "lower"},
	{Name: "decomp.imbalance", Unit: "1", Better: "lower"},
	{Name: "decomp.halo_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "par.runner_mflups", Unit: "MFLUPS", Better: "higher"},
	{Name: "par.speedup", Unit: "1", Better: "higher"},
	{Name: "par.comm_frac", Unit: "1", Better: "lower"},
	{Name: "par.step_allocs", Unit: "1", Better: "lower"},
	{Name: "mbench.pingpong_4k_us", Unit: "us", Better: "lower"},
	// Campaign: fleet_campaign.
	{Name: "core.new_framework_ms", Unit: "ms", Better: "lower"},
	{Name: "core.prepare_anatomy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.workload_ms", Unit: "ms", Better: "lower"},
	{Name: "core.predict_direct_us", Unit: "us", Better: "lower"},
	{Name: "fleet.sched_run_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.events_per_run", Unit: "count", Better: "lower"},
	{Name: "fleet.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.allocs_per_event", Unit: "1", Better: "lower"},
	{Name: "fleet.completed", Unit: "count", Better: "higher"},
	{Name: "fleet.shed", Unit: "count", Better: "lower"},
	{Name: "fleet.preemptions", Unit: "count", Better: "lower"},
	{Name: "simcloud.run_us", Unit: "us", Better: "lower"},
	{Name: "campaign.prepare_frac", Unit: "1", Better: "lower"},
}

// quantile reads the q-quantile of ascending values by nearest rank, the
// rule cmd/loadgen uses.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// bestDecile returns the value a tenth of the way in from the better end
// of values, which it sorts. On a shared host interference only ever slows
// a slice, so the fast end of the distribution is the nearest to what the
// code costs; a tenth in, and not the extreme, so that one lucky slice does
// not set the figure.
func bestDecile(values []float64, better string) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	i := int(0.1 * float64(len(values)-1))
	if better == "higher" {
		i = len(values) - 1 - i
	}
	return values[i]
}

// summary is the spread of one metric over repetitions or runs. Quartiles
// follow Python's statistics.quantiles(values, n=4), as the acceptance
// driver computes them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// value is what a run reports for a metric: the best repetition, for the
// reason bestDecile gives. Between them the two make a run's figure the
// fast end of some dozens of slices spread over R processes.
func (s summary) value(m metricDef) float64 {
	if m.Better == "higher" {
		return s.Max
	}
	return s.Min
}

// worst is the other end.
func (s summary) worst(m metricDef) float64 {
	if m.Better == "higher" {
		return s.Min
	}
	return s.Max
}

func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return summary{}
	}
	at := func(p float64) float64 { // exclusive method: position p*(n+1), 1-based
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return v[0]
		case lo >= n:
			return v[n-1]
		}
		return v[lo-1] + (pos-float64(lo))*(v[lo]-v[lo-1])
	}
	return summary{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), Min: v[0], Max: v[n-1], N: n}
}
