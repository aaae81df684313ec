package cloud

import (
	"math"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/simcloud"
)

func testWorkload(t *testing.T, ranks int) simcloud.Workload {
	t.Helper()
	dom, err := geometry.Cylinder(32, 7)
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
	return simcloud.FromPartition("cyl", s.N(), p)
}

func newProvider() *Provider { return NewProvider(machine.Catalog(), 42) }

func TestProviderLookup(t *testing.T) {
	p := newProvider()
	if _, err := p.System("CSP-2 EC"); err != nil {
		t.Errorf("known system rejected: %v", err)
	}
	if _, err := p.System("AWS"); err == nil {
		t.Error("want error for unknown system")
	}
}

func TestAdvance(t *testing.T) {
	p := newProvider()
	if err := p.Advance(21600); err != nil {
		t.Fatal(err)
	}
	if p.Clock() != 21600 {
		t.Errorf("clock = %v, want 21600", p.Clock())
	}
	if err := p.Advance(-1); err == nil {
		t.Error("want error for negative advance")
	}
}

func TestRunJobBillsActualUsage(t *testing.T) {
	p := newProvider()
	w := testWorkload(t, 16)
	res, err := p.RunJob(JobSpec{Workload: w, System: "CSP-1", Steps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatalf("unguarded job aborted: %s", res.AbortReason)
	}
	if res.StepsDone != 500 {
		t.Errorf("StepsDone = %d, want 500", res.StepsDone)
	}
	sys, _ := p.System("CSP-1")
	want := sys.JobCost(16, res.Result.Seconds)
	if math.Abs(res.USD-want) > 1e-9 {
		t.Errorf("billed %v, want %v", res.USD, want)
	}
	if p.TotalSpend() != res.USD {
		t.Errorf("provider spend %v != job bill %v", p.TotalSpend(), res.USD)
	}
	if len(p.Ledger()) != 1 {
		t.Fatalf("ledger has %d entries, want 1", len(p.Ledger()))
	}
	if res.WallSeconds <= res.Result.Seconds {
		t.Error("wall time must include provisioning delay")
	}
}

func TestRunJobValidation(t *testing.T) {
	p := newProvider()
	w := testWorkload(t, 16)
	if _, err := p.RunJob(JobSpec{Workload: w, System: "nope", Steps: 10}); err == nil {
		t.Error("want error for unknown system")
	}
	if _, err := p.RunJob(JobSpec{Workload: w, System: "CSP-1", Steps: 0}); err == nil {
		t.Error("want error for zero steps")
	}
	if _, err := p.RunJob(JobSpec{System: "CSP-1", Steps: 10}); err == nil {
		t.Error("want error for empty workload")
	}
	big := testWorkload(t, 64) // CSP-1 has 48 cores
	if _, err := p.RunJob(JobSpec{Workload: big, System: "CSP-1", Steps: 10}); err == nil {
		t.Error("want error for oversubscribed system")
	}
}

func TestTimeGuardTripsOnBadPrediction(t *testing.T) {
	// Predict a tenth of the plausible runtime: the guard must hard-stop
	// the job near the predicted envelope instead of running to completion.
	p := newProvider()
	w := testWorkload(t, 16)
	probe, err := p.RunJob(JobSpec{Workload: w, System: "CSP-2 Small", Steps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	predicted := probe.Result.Seconds / 10

	res, err := p.RunJob(JobSpec{
		Workload: w, System: "CSP-2 Small", Steps: 1000,
		PredictedSeconds: predicted, Tolerance: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("guard did not trip on a 10x underprediction")
	}
	if !strings.Contains(res.AbortReason, "time guard") {
		t.Errorf("abort reason %q not the time guard", res.AbortReason)
	}
	if res.StepsDone >= 1000 {
		t.Error("aborted job claims full completion")
	}
	// The overshoot past the guard is bounded by one metering slice
	// (1/20th of the job), since the guard polls at slice boundaries.
	limit := predicted * 1.10
	slice := probe.Result.Seconds / 20
	if res.Result.Seconds > limit+1.5*slice {
		t.Errorf("guard let job run to %v, limit %v + slice %v", res.Result.Seconds, limit, slice)
	}
}

func TestTimeGuardPassesGoodPrediction(t *testing.T) {
	p := newProvider()
	w := testWorkload(t, 16)
	probe, err := p.RunJob(JobSpec{Workload: w, System: "CSP-2 Small", Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunJob(JobSpec{
		Workload: w, System: "CSP-2 Small", Steps: 400,
		PredictedSeconds: probe.Result.Seconds, Tolerance: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Errorf("guard tripped on an accurate prediction: %s", res.AbortReason)
	}
}

func TestCostGuard(t *testing.T) {
	p := newProvider()
	w := testWorkload(t, 16)
	probe, err := p.RunJob(JobSpec{Workload: w, System: "CSP-2 Small", Steps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cap := probe.USD / 5
	res, err := p.RunJob(JobSpec{Workload: w, System: "CSP-2 Small", Steps: 1000, MaxUSD: cap})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || !strings.Contains(res.AbortReason, "cost guard") {
		t.Fatalf("cost guard did not trip: %+v", res)
	}
	if res.USD > cap*1.3 {
		t.Errorf("billed %v, far above cap %v", res.USD, cap)
	}
}

func TestCampaignBudget(t *testing.T) {
	p := newProvider()
	w := testWorkload(t, 16)
	probe, err := p.RunJob(JobSpec{Workload: w, System: "CSP-2 Small", Steps: 300})
	if err != nil {
		t.Fatal(err)
	}
	perJob := probe.USD

	fresh := newProvider()
	c := Campaign{Provider: fresh, BudgetUSD: perJob * 2.5}
	specs := make([]JobSpec, 5)
	for i := range specs {
		wi := w
		wi.Name = string(rune('a' + i))
		specs[i] = JobSpec{Workload: wi, System: "CSP-2 Small", Steps: 300}
	}
	if err := c.Run(specs); err != nil {
		t.Fatal(err)
	}
	if len(c.Results)+len(c.Skipped) != 5 {
		t.Fatalf("results %d + skipped %d != 5", len(c.Results), len(c.Skipped))
	}
	if len(c.Skipped) == 0 {
		t.Error("budget should have excluded some jobs")
	}
	// The campaign may overshoot by at most one job (started within
	// budget), never more.
	if fresh.TotalSpend() > c.BudgetUSD+perJob*1.5 {
		t.Errorf("spend %v blew past budget %v", fresh.TotalSpend(), c.BudgetUSD)
	}
}

func TestCampaignSkipsGuardedJobsOverBudget(t *testing.T) {
	p := newProvider()
	w := testWorkload(t, 16)
	c := Campaign{Provider: p, BudgetUSD: 0.0001}
	if err := c.Run([]JobSpec{{Workload: w, System: "CSP-2 Small", Steps: 100, MaxUSD: 10}}); err != nil {
		t.Fatal(err)
	}
	if len(c.Skipped) != 1 || len(c.Results) != 0 {
		t.Errorf("guarded job not skipped: %+v", c)
	}
}

func TestJobsAdvanceClock(t *testing.T) {
	p := newProvider()
	w := testWorkload(t, 16)
	before := p.Clock()
	if _, err := p.RunJob(JobSpec{Workload: w, System: "CSP-1", Steps: 100}); err != nil {
		t.Fatal(err)
	}
	if p.Clock() <= before {
		t.Error("job did not advance simulated time")
	}
}
