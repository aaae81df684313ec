package fleet

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/machine"
	"repro/internal/obs"
)

// The tests in this file pin the metered attempt: its guards, its bill
// and its spot hazard, and what retries and the budget do with it. Each
// runs unpriced jobs on a small pool, so a job is guarded by the PerStep
// it is given and the budget alone.

// solo is a one-instance pool of system.
func solo(system string, spot bool) Config {
	return Config{Seed: 42, Instances: []InstanceConfig{{System: system, Count: 1, Spot: spot}}}
}

// unpriced is a job without model predictions: unguarded, and placed
// at a predicted cost of zero.
func unpriced(t *testing.T, name string, ranks, steps int) *Job {
	j := namedJob(t, name, ranks, steps, 0)
	j.PerStep = nil
	return j
}

// runPool schedules jobs on cfg's pool.
func runPool(t *testing.T, cfg Config, jobs ...*Job) *Report {
	t.Helper()
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// probe runs the job unguarded on an on-demand instance of system.
func probe(t *testing.T, system string, steps int) JobReport {
	t.Helper()
	return runPool(t, solo(system, false), unpriced(t, "probe", 16, steps)).Jobs[0]
}

func TestTimeGuardTripsOnBadPrediction(t *testing.T) {
	// Predict a tenth of the plausible runtime: the guard must hard-stop
	// the job near the predicted envelope instead of running to completion.
	const steps = 1000
	ref := probe(t, "CSP-2 Small", steps)
	perStep := ref.ComputeS / steps / 10

	j := unpriced(t, "guarded", 16, steps)
	j.PerStep = map[string]float64{"CSP-2 Small": perStep}
	j.Tolerance = 0.10
	r := runPool(t, solo("CSP-2 Small", false), j).Jobs[0]
	if r.Completed {
		t.Fatal("guard did not trip on a 10x underprediction")
	}
	if r.StepsDone >= steps {
		t.Error("aborted job claims full completion")
	}
	// The reason reads both times to three significant figures, however
	// short the attempt.
	var ran, predicted float64
	if _, err := fmt.Sscanf(r.ShedReason, "time guard: %gs exceeds predicted %gs", &ran, &predicted); err != nil {
		t.Fatalf("shed reason %q is not the time guard: %v", r.ShedReason, err)
	}
	if math.Abs(ran-r.ComputeS) > 0.005*r.ComputeS || math.Abs(predicted-perStep*steps) > 0.005*perStep*steps {
		t.Errorf("reason %q, want %.3gs over %.3gs", r.ShedReason, r.ComputeS, perStep*steps)
	}
	// The overshoot past the guard is bounded by one metering slice
	// (1/20th of the job), since the guard polls at slice boundaries.
	limit := perStep * steps * 1.10
	slice := ref.ComputeS / 20
	if r.ComputeS > limit+1.5*slice {
		t.Errorf("guard let the job run to %v, limit %v + slice %v", r.ComputeS, limit, slice)
	}
}

func TestTimeGuardPassesGoodPrediction(t *testing.T) {
	const steps = 400
	ref := probe(t, "CSP-2 Small", steps)
	j := unpriced(t, "guarded", 16, steps)
	j.PerStep = map[string]float64{"CSP-2 Small": ref.ComputeS / steps}
	j.Tolerance = 0.10
	cfg := solo("CSP-2 Small", false)
	cfg.Seed++ // other noise than the probe's
	if r := runPool(t, cfg, j).Jobs[0]; !r.Completed {
		t.Errorf("guard tripped on an accurate prediction: %s", r.ShedReason)
	}
}

func TestCostGuard(t *testing.T) {
	// An unpriced job is admitted at zero predicted cost, so the attempt's
	// cap is the whole budget: a fifth of what the job would bill.
	ref := probe(t, "CSP-2 Small", 1000)
	cfg := solo("CSP-2 Small", false)
	cfg.BudgetUSD = ref.USD / 5
	r := runPool(t, cfg, unpriced(t, "capped", 16, 1000)).Jobs[0]
	if r.Completed || !strings.HasPrefix(r.ShedReason, "cost guard") {
		t.Fatalf("cost guard did not trip: %+v", r)
	}
	if r.USD > cfg.BudgetUSD*1.3 {
		t.Errorf("billed %v, far above cap %v", r.USD, cfg.BudgetUSD)
	}
}

func TestOnDemandBillsActualUsage(t *testing.T) {
	// On-demand capacity bills its metered compute time at the list
	// price, and the fleet's spend is that one bill. Provisioning delays
	// the meter but is never billed.
	sys, err := machine.ByAbbrev("CSP-1")
	if err != nil {
		t.Fatal(err)
	}
	r := runPool(t, solo("CSP-1", false), unpriced(t, "od", 16, 500))
	od := r.Jobs[0]
	if !od.Completed || od.StepsDone != 500 {
		t.Fatalf("unguarded job did %d/500 steps (completed %v): %s", od.StepsDone, od.Completed, od.ShedReason)
	}
	if want := sys.JobCost(16, od.ComputeS); math.Abs(od.USD-want) > 1e-15 {
		t.Errorf("on-demand bill %v, want %v", od.USD, want)
	}
	if r.SpentUSD != od.USD {
		t.Errorf("fleet spend %v != job bill %v", r.SpentUSD, od.USD)
	}
	if od.ProvisionS <= 0 {
		t.Error("no provisioning delay before the meter started")
	}
}

func TestSpotDiscountApplied(t *testing.T) {
	// With the hazard all but off, spot capacity completes and bills its
	// own metered compute time at SpotDiscount of the list price.
	sys, err := machine.ByAbbrev("CSP-2 Small")
	if err != nil {
		t.Fatal(err)
	}
	cfg := solo("CSP-2 Small", true)
	cfg.PreemptionPerNodeHour = 1e-12
	sp := runPool(t, cfg, unpriced(t, "spot", 16, 300)).Jobs[0]
	if !sp.Completed || sp.Attempts != 1 {
		t.Fatalf("hazard-free spot job did not complete in one attempt: %+v", sp)
	}
	if want := sys.JobCost(16, sp.ComputeS) * cloud.SpotDiscount; math.Abs(sp.USD-want) > 1e-15 {
		t.Errorf("spot bill %v, want %v", sp.USD, want)
	}
}

func TestOnDemandNeverPreempted(t *testing.T) {
	cfg := solo("CSP-2 Small", false)
	cfg.PreemptionPerNodeHour = 1e7
	r := runPool(t, cfg, unpriced(t, "od", 16, 200))
	if !r.Jobs[0].Completed || r.Jobs[0].Attempts != 1 || countEvents(r.Events, EvPreempted) != 0 {
		t.Errorf("on-demand job was preempted:\n%s", RenderEvents(r.Events))
	}
}

// TestRetryAggregationConserves is a property-style check over many
// seeds: however many preemptions the jobs suffer, the bills conserve —
// Σ job USD = Σ instance earned USD = the fleet's spend, the instances'
// busy time is the jobs' provisioning plus compute — and no job does
// more steps than it has.
func TestRetryAggregationConserves(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := Config{
			Seed: seed, BudgetUSD: 100, MaxRetries: 100,
			PreemptionPerNodeHour: 2e5, // preempts often, completes eventually
			Instances:             []InstanceConfig{{System: "CSP-2 Small", Count: 2, Spot: true}},
		}
		r := runPool(t, cfg,
			unpriced(t, "a", 16, 400), unpriced(t, "b", 16, 300), unpriced(t, "c", 8, 400))
		var jobUSD, jobS, instUSD, instS float64
		for _, j := range r.Jobs {
			jobUSD += j.USD
			jobS += j.ProvisionS + j.ComputeS
			if j.StepsDone > j.Steps || (j.Completed && j.StepsDone != j.Steps) {
				t.Errorf("seed %d: job %s did %d/%d steps (completed %v)", seed, j.Name, j.StepsDone, j.Steps, j.Completed)
			}
		}
		for _, i := range r.Instances {
			instUSD += i.USD
			instS += i.BusyS
		}
		if math.Abs(jobUSD-instUSD) > 1e-12 || math.Abs(jobUSD-r.SpentUSD) > 1e-12 {
			t.Errorf("seed %d: jobs bill $%v, instances earn $%v, fleet spent $%v", seed, jobUSD, instUSD, r.SpentUSD)
		}
		if math.Abs(jobS-instS) > 1e-9*jobS {
			t.Errorf("seed %d: jobs took %vs, instances were busy %vs", seed, jobS, instS)
		}
		if countEvents(r.Events, EvPreempted) == 0 {
			t.Errorf("seed %d: no preemption to aggregate across", seed)
		}
	}
}

// TestRetryBudgetEnforced forces a preemption on every attempt against a
// budget that cannot cover the retry sequence: the budget must stop the
// retries long before the retry cap does, and a started attempt may
// overshoot it by at most one attempt's cost.
func TestRetryBudgetEnforced(t *testing.T) {
	ref := probe(t, "CSP-2 Small", 400)
	cfg := solo("CSP-2 Small", true)
	cfg.PreemptionPerNodeHour = 1e8 // every attempt is preempted
	cfg.MaxRetries = 1000
	cfg.BudgetUSD = ref.USD * cloud.SpotDiscount / 2
	r := runPool(t, cfg, unpriced(t, "doomed", 16, 400))
	j := r.Jobs[0]
	if j.Completed || j.StepsDone == 0 {
		t.Fatalf("want a shed job with its partial work kept: %+v", j)
	}
	if r.SpentUSD > cfg.BudgetUSD+ref.USD {
		t.Errorf("spend $%v blew past budget $%v", r.SpentUSD, cfg.BudgetUSD)
	}
	if j.Attempts >= cfg.MaxRetries {
		t.Errorf("budget did not stop the retry sequence: %d attempts", j.Attempts)
	}
}

// TestPreemptionCountedPastTheRetryCap: a preemption is counted whether
// or not a retry follows it. One retry allowed and every attempt
// preempted gives two preemptions, one of them requeued.
func TestPreemptionCountedPastTheRetryCap(t *testing.T) {
	cfg := solo("CSP-2 Small", true)
	cfg.PreemptionPerNodeHour = 1e8 // every attempt is preempted
	cfg.MaxRetries = 1
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Metrics = obs.NewRegistry()
	r, err := s.Run([]*Job{unpriced(t, "doomed", 16, 400)})
	if err != nil {
		t.Fatal(err)
	}
	if got := countEvents(r.Events, EvPreempted); got != 2 {
		t.Errorf("%d preempted events, want 2:\n%s", got, RenderEvents(r.Events))
	}
	if got := countEvents(r.Events, EvRequeued); got != 1 {
		t.Errorf("%d requeued events, want 1:\n%s", got, RenderEvents(r.Events))
	}
	pre := s.Metrics.Counter(metricPreemptionsTotal).Value()
	retries := s.Metrics.Counter(metricRetriesTotal).Value()
	if pre != 2 || retries != 1 {
		t.Errorf("%s %v and %s %v, want 2 and 1", metricPreemptionsTotal, pre, metricRetriesTotal, retries)
	}
}

func TestSpotCheaperDespiteRetries(t *testing.T) {
	// The economics that make spot attractive: even paying for preempted
	// partial runs, the discounted rate usually wins.
	od := probe(t, "CSP-2 Small", 400)
	cfg := solo("CSP-2 Small", true)
	cfg.PreemptionPerNodeHour = 1e5 // occasional preemption
	cfg.MaxRetries = 50
	r := runPool(t, cfg, unpriced(t, "spot", 16, 400))
	if sp := r.Jobs[0]; !sp.Completed || sp.Attempts < 2 {
		t.Fatalf("want a spot job completed across preemptions: %+v", sp)
	}
	if r.SpentUSD >= od.USD {
		t.Errorf("spot ($%v) not cheaper than on-demand ($%v)", r.SpentUSD, od.USD)
	}
}
