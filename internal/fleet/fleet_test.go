package fleet

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/monitor"
	"repro/internal/simcloud"
)

// testWorkload builds one small decomposed cylinder, cached per rank
// count — workload construction is pure and read-only afterwards.
var (
	wlMu    sync.Mutex
	wlCache = map[int]simcloud.Workload{}
)

func testWorkload(t testing.TB, ranks int) simcloud.Workload {
	t.Helper()
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache[ranks]; ok {
		return w
	}
	dom, err := geometry.Cylinder(24, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, PeriodicX: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := decomp.RCB(s, ranks, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	w := simcloud.FromPartition("cyl", s.N(), p)
	wlCache[ranks] = w
	return w
}

// namedJob is a job priced on every catalog system that can host it at
// one noiseless simulated timestep: a perfect model's seconds-per-step.
func namedJob(t testing.TB, name string, ranks, steps, priority int) *Job {
	w := testWorkload(t, ranks)
	w.Name = name
	perStep := map[string]float64{}
	for _, sys := range machine.FullCatalog() {
		if ranks <= sys.MaxRanks() {
			perStep[sys.Abbrev] = noiselessStepS(t, w, sys)
		}
	}
	return &Job{Name: name, Workload: w, Steps: steps, Priority: priority, PerStep: perStep}
}

// noiselessStepS is one noiseless simulated timestep of w on sys.
func noiselessStepS(t testing.TB, w simcloud.Workload, sys *machine.System) float64 {
	t.Helper()
	r, err := simcloud.Run(w, sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.StepS
}

func onDemandPool(seed int64) Config {
	return Config{
		Seed:      seed,
		BudgetUSD: 100,
		Instances: []InstanceConfig{
			{System: "CSP-2 Small", Count: 2},
			{System: "CSP-1", Count: 1},
		},
	}
}

func countEvents(events []Event, typ EventType) int {
	n := 0
	for _, e := range events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Instances: []InstanceConfig{{System: "nope", Count: 1}}},
		{Instances: []InstanceConfig{{System: "CSP-1", Count: 0}}},
		{BudgetUSD: -1, Instances: []InstanceConfig{{System: "CSP-1", Count: 1}}},
		{MaxRetries: -1, Instances: []InstanceConfig{{System: "CSP-1", Count: 1}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
	if err := onDemandPool(1).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestFleetCompletesJobs(t *testing.T) {
	s, err := NewScheduler(onDemandPool(7))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*Job{
		namedJob(t, "a", 8, 200, 0),
		namedJob(t, "b", 8, 300, 1),
		namedJob(t, "c", 16, 250, 0),
		namedJob(t, "d", 8, 150, 2),
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 4 || r.Shed != 0 {
		t.Fatalf("completed %d, shed %d, want 4/0:\n%s", r.Completed, r.Shed, r.RenderJobs())
	}
	for _, j := range r.Jobs {
		if j.StepsDone != j.Steps {
			t.Errorf("job %s finished %d/%d steps", j.Name, j.StepsDone, j.Steps)
		}
		if j.USD <= 0 || j.MFLUPS <= 0 {
			t.Errorf("job %s has empty accounting: %+v", j.Name, j)
		}
	}
	var sum float64
	for _, j := range r.Jobs {
		sum += j.USD
	}
	if math.Abs(sum-r.SpentUSD) > 1e-9 {
		t.Errorf("job bills %v != fleet spend %v", sum, r.SpentUSD)
	}
	var earned float64
	for _, i := range r.Instances {
		earned += i.USD
		if i.Utilization < 0 || i.Utilization > 1 {
			t.Errorf("instance %s utilization %v outside [0,1]", i.ID, i.Utilization)
		}
	}
	if math.Abs(earned-r.SpentUSD) > 1e-9 {
		t.Errorf("instance revenue %v != fleet spend %v", earned, r.SpentUSD)
	}
	if got := countEvents(r.Events, EvCompleted); got != 4 {
		t.Errorf("%d completed events, want 4", got)
	}
	if r.MakespanS <= 0 {
		t.Error("zero makespan")
	}
}

func TestPriorityOrdersPlacement(t *testing.T) {
	cfg := Config{Seed: 3, Instances: []InstanceConfig{{System: "CSP-1", Count: 1}}}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run([]*Job{
		namedJob(t, "low", 8, 100, 1),
		namedJob(t, "high", 8, 100, 5),
		namedJob(t, "mid", 8, 100, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, e := range r.Events {
		if e.Type == EvPlaced {
			order = append(order, e.Job)
		}
	}
	want := []string{"high", "mid", "low"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("placement order %v, want %v", order, want)
		}
	}
}

func TestDeadlineDrivesPlacement(t *testing.T) {
	// Hand the scheduler explicit model predictions: the "slow" system is
	// far cheaper, the "fast" one meets a tight deadline. Without a
	// deadline the job must go cheap; with one it must go fast.
	// With 8 ranks both systems use one node, so predicted cost is
	// perStep * steps * price: CSP-2 Small at 5 s/step costs $0.056
	// (slow, cheap at $0.40/h), CSP-2 EC at 1 s/step costs $0.108
	// (fast, dear at $3.89/h).
	cfg := Config{Seed: 5, Instances: []InstanceConfig{
		{System: "CSP-2 Small", Count: 1},
		{System: "CSP-2 EC", Count: 1},
	}}
	perStep := map[string]float64{"CSP-2 Small": 5.0, "CSP-2 EC": 1.0}

	run := func(deadline float64) string {
		s, err := NewScheduler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		j := namedJob(t, "case", 8, 100, 0) // execution still uses real timings
		j.PerStep = perStep
		j.DeadlineS = deadline
		j.Tolerance = 1e6 // predictions here are placement fictions: disarm the guard
		r, err := s.Run([]*Job{j})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range r.Events {
			if e.Type == EvPlaced {
				return e.Instance
			}
		}
		t.Fatal("job never placed")
		return ""
	}

	// Unconstrained placement picks the cheapest prediction.
	if inst := run(0); !strings.HasPrefix(inst, "CSP-2 Small") {
		t.Errorf("unconstrained job placed on %s, want the cheap CSP-2 Small", inst)
	}
	// A 300s deadline excludes CSP-2 Small's predicted 570s (70s
	// provisioning + 500s compute); only CSP-2 EC (85 + 100 = 185s) fits.
	if inst := run(300); !strings.HasPrefix(inst, "CSP-2 EC") {
		t.Errorf("deadline job placed on %s, want the fast CSP-2 EC", inst)
	}
}

func TestBudgetGovernorSheds(t *testing.T) {
	cfg := onDemandPool(11)
	cfg.BudgetUSD = 1e-12 // far below any job's predicted cost
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run([]*Job{namedJob(t, "a", 8, 200, 0), namedJob(t, "b", 8, 200, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed != 2 || r.Completed != 0 {
		t.Fatalf("shed %d completed %d, want 2/0:\n%s", r.Shed, r.Completed, r.RenderJobs())
	}
	if r.SpentUSD != 0 {
		t.Errorf("shed-everything run spent $%v", r.SpentUSD)
	}
	if got := countEvents(r.Events, EvShed); got != 2 {
		t.Errorf("%d shed events, want 2", got)
	}
}

func TestBudgetGovernorDefersThenAdmits(t *testing.T) {
	// One instance, an over-predicting model, and a budget that fits the
	// second job only after the first settles below its reservation: the
	// scheduler must defer, then admit — not shed.
	cfg := Config{Seed: 13, Instances: []InstanceConfig{{System: "CSP-2 Small", Count: 2}}}
	sys, err := machine.ByAbbrev("CSP-2 Small")
	if err != nil {
		t.Fatal(err)
	}
	base := noiselessStepS(t, testWorkload(t, 8), sys)
	const steps = 200
	actual := sys.JobCost(8, base*steps)
	cfg.BudgetUSD = 2.6 * actual

	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, second := namedJob(t, "first", 8, steps, 1), namedJob(t, "second", 8, steps, 0)
	for _, j := range []*Job{first, second} {
		j.PerStep = map[string]float64{"CSP-2 Small": base * 1.5} // reservation overshoots the metered bill
	}
	r, err := s.Run([]*Job{first, second})
	if err != nil {
		t.Fatal(err)
	}
	if countEvents(r.Events, EvDeferred) == 0 {
		t.Fatalf("no deferred event:\n%s", RenderEvents(r.Events))
	}
	if r.Completed != 2 {
		t.Fatalf("completed %d, want 2 (deferred job must be admitted later):\n%s",
			r.Completed, RenderEvents(r.Events))
	}
	if r.SpentUSD > cfg.BudgetUSD {
		t.Errorf("spend $%v exceeds budget $%v", r.SpentUSD, cfg.BudgetUSD)
	}
}

func TestPreemptRequeueComplete(t *testing.T) {
	// A spot-heavy pool under a hazard calibrated so attempts are
	// sometimes — not always — reclaimed: the log must show at least one
	// full preempt -> requeue -> complete cycle.
	cfg := Config{
		Seed:                  2,
		BudgetUSD:             100,
		MaxRetries:            50,
		PreemptionPerNodeHour: 2e5,
		Instances: []InstanceConfig{
			{System: "CSP-2 Small", Count: 2, Spot: true},
		},
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*Job{
		namedJob(t, "s1", 8, 400, 0),
		namedJob(t, "s2", 8, 400, 0),
		namedJob(t, "s3", 8, 400, 0),
		namedJob(t, "s4", 8, 400, 0),
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	pre := countEvents(r.Events, EvPreempted)
	req := countEvents(r.Events, EvRequeued)
	if pre == 0 || req == 0 {
		t.Fatalf("no preemption cycle (preempted %d, requeued %d):\n%s",
			pre, req, RenderEvents(r.Events))
	}
	// At least one preempted job must have completed afterwards.
	recovered := false
	for _, j := range r.Jobs {
		if j.Completed && j.Attempts > 1 {
			recovered = true
			if j.StepsDone != j.Steps {
				t.Errorf("job %s completed with %d/%d steps", j.Name, j.StepsDone, j.Steps)
			}
		}
	}
	if !recovered {
		t.Fatalf("no job recovered from preemption:\n%s", r.RenderJobs())
	}
	// Requeued jobs wait out an exponential backoff: their requeue events
	// must carry a positive backoff and the job must restart later.
	for _, e := range r.Events {
		if e.Type == EvRequeued && !strings.Contains(e.Detail, "backoff") {
			t.Errorf("requeue event without backoff detail: %s", e)
		}
	}
}

func TestRetryCapSheds(t *testing.T) {
	cfg := Config{
		Seed:                  4,
		BudgetUSD:             1000,
		MaxRetries:            3,
		PreemptionPerNodeHour: 1e8, // every attempt reclaimed
		Instances:             []InstanceConfig{{System: "CSP-2 Small", Count: 1, Spot: true}},
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run([]*Job{namedJob(t, "doomed", 8, 400, 0)})
	if err != nil {
		t.Fatal(err)
	}
	j := r.Jobs[0]
	if j.Completed {
		t.Fatal("job survived a certain hazard")
	}
	if j.Attempts != cfg.MaxRetries+1 {
		t.Errorf("attempts = %d, want %d", j.Attempts, cfg.MaxRetries+1)
	}
	if !strings.Contains(j.ShedReason, "retry cap") {
		t.Errorf("shed reason %q not the retry cap", j.ShedReason)
	}
	// Partial work is still billed.
	if j.USD <= 0 || r.SpentUSD <= 0 {
		t.Error("preempted attempts were not billed")
	}
}

func TestOversizedJobShedAtSubmit(t *testing.T) {
	cfg := Config{Seed: 1, Instances: []InstanceConfig{{System: "CSP-1", Count: 1}}}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run([]*Job{namedJob(t, "big", 64, 100, 0)}) // CSP-1 has 48 cores
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed != 1 || !strings.Contains(r.Jobs[0].ShedReason, "no pool instance") {
		t.Fatalf("oversized job not shed at submit: %+v", r.Jobs[0])
	}
}

func TestOnDemandOnlyAvoidsSpot(t *testing.T) {
	cfg := Config{
		Seed:                  9,
		PreemptionPerNodeHour: 1e8,
		Instances: []InstanceConfig{
			{System: "CSP-2 Small", Count: 1, Spot: true},
			{System: "CSP-1", Count: 1},
		},
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := namedJob(t, "critical", 8, 200, 0)
	j.OnDemandOnly = true
	r, err := s.Run([]*Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Jobs[0].Completed {
		t.Fatalf("on-demand-only job did not complete: %+v", r.Jobs[0])
	}
	for _, e := range r.Events {
		if e.Type == EvPlaced && !strings.HasPrefix(e.Instance, "CSP-1") {
			t.Errorf("on-demand-only job placed on %s", e.Instance)
		}
	}
}

func TestExportMonitor(t *testing.T) {
	s, err := NewScheduler(onDemandPool(21))
	if err != nil {
		t.Fatal(err)
	}
	a := namedJob(t, "a", 8, 200, 0)
	a.PredMFLUPS = map[string]float64{"CSP-2 Small": 123, "CSP-1": 99}
	b := namedJob(t, "b", 8, 250, 0)
	b.PredMFLUPS = map[string]float64{"CSP-2 Small": 400, "CSP-1": 300}
	b.PredTier = map[string]string{"CSP-2 Small": "tier0", "CSP-1": "tier0"}
	r, err := s.Run([]*Job{a, b, namedJob(t, "c", 8, 250, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// The store already holds a run that ended at t=1000: the fleet's
	// completion times, counted from zero, land after it.
	var st monitor.Store
	if err := st.Add(monitor.Sample{TimeS: 1000, Workload: "earlier", System: "CSP-1", Ranks: 8, MFLUPS: 50}); err != nil {
		t.Fatal(err)
	}
	if err := r.ExportMonitor(&st, 1000); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1+r.Completed || r.Completed != 3 {
		t.Fatalf("exported %d samples for %d completed jobs", st.Len()-1, r.Completed)
	}
	for _, j := range r.Jobs {
		got := st.Series(j.Name, j.System, j.Ranks)
		if len(got) != 1 || got[0].TimeS != 1000+j.DoneS || got[0].Predicted != j.PredMFLUPS || got[0].Tier != j.PredTier {
			t.Errorf("job %s exported as %+v, report %+v", j.Name, got, j)
		}
	}
	// Only the Tier 1 prediction refines: job a's, not b's tier0 one or
	// the prediction-less c.
	sysA := r.Jobs[0].System
	if _, _, n := st.MAPE(sysA, "direct"); n != 1 {
		t.Errorf("refinement reads %d samples on %s, want job a's alone", n, sysA)
	}
	if got, want := st.Correction(sysA, "direct", 8), r.Jobs[0].MFLUPS/r.Jobs[0].PredMFLUPS; math.Abs(got-want) > 1e-12 {
		t.Errorf("correction on %s = %v, want %v", sysA, got, want)
	}
	if r.Jobs[1].PredTier != "tier0" {
		t.Errorf("job b reports tier %q, want tier0", r.Jobs[1].PredTier)
	}
}

func TestRunValidation(t *testing.T) {
	s, err := NewScheduler(onDemandPool(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err == nil {
		t.Error("want error for empty job list")
	}
	s, _ = NewScheduler(onDemandPool(1))
	if _, err := s.Run([]*Job{namedJob(t, "x", 8, 0, 0)}); err == nil {
		t.Error("want error for zero steps")
	}
	s, _ = NewScheduler(onDemandPool(1))
	if _, err := s.Run([]*Job{namedJob(t, "x", 8, 10, 0), namedJob(t, "x", 8, 10, 0)}); err == nil {
		t.Error("want error for duplicate names")
	}
}
