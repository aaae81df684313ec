package fleet

import (
	"testing"
)

// fullConfig exercises every scheduler path: mixed instance types, spot
// capacity with a live hazard, a binding budget, and mixed priorities.
func fullConfig(seed int64) Config {
	return Config{
		Seed:                  seed,
		BudgetUSD:             0.02,
		MaxRetries:            20,
		PreemptionPerNodeHour: 2e5,
		Instances: []InstanceConfig{
			{System: "CSP-2 Small", Count: 2, Spot: true},
			{System: "CSP-2 EC", Count: 1},
			{System: "CSP-1", Count: 1},
		},
	}
}

func fullJobs(t testing.TB) []*Job {
	var jobs []*Job
	for i, spec := range []struct {
		name     string
		ranks    int
		steps    int
		priority int
		deadline float64
	}{
		{"aorta-p3", 8, 300, 3, 0},
		{"cerebral-p1", 16, 200, 1, 0},
		{"cyl-dl", 8, 250, 2, 5000},
		{"batch-a", 8, 400, 0, 0},
		{"batch-b", 8, 350, 0, 0},
		{"batch-c", 16, 300, 1, 0},
	} {
		j := namedJob(t, spec.name, spec.ranks, spec.steps, spec.priority)
		j.DeadlineS = spec.deadline
		jobs = append(jobs, j)
		_ = i
	}
	return jobs
}

// TestSameSeedByteIdenticalEventLogs is the reproducibility contract:
// two runs with one seed must produce byte-identical structured event
// logs (and identical reports).
func TestSameSeedByteIdenticalEventLogs(t *testing.T) {
	run := func() (*Report, string) {
		s, err := NewScheduler(fullConfig(17))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(fullJobs(t))
		if err != nil {
			t.Fatal(err)
		}
		return r, r.RenderEvents()
	}
	r1, log1 := run()
	r2, log2 := run()
	if log1 != log2 {
		t.Fatalf("same-seed event logs differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", log1, log2)
	}
	if r1.RenderJobs() != r2.RenderJobs() {
		t.Error("same-seed job reports differ")
	}
	if r1.RenderUtilization() != r2.RenderUtilization() {
		t.Error("same-seed utilization reports differ")
	}
	if r1.SpentUSD != r2.SpentUSD || r1.MakespanS != r2.MakespanS {
		t.Errorf("same-seed totals differ: $%v/%v vs $%v/%v",
			r1.SpentUSD, r1.MakespanS, r2.SpentUSD, r2.MakespanS)
	}
}

// TestDifferentSeedDiverges guards against the RNG being wired to
// nothing: a different seed must change at least the noisy timings.
func TestDifferentSeedDiverges(t *testing.T) {
	run := func(seed int64) string {
		s, err := NewScheduler(fullConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(fullJobs(t))
		if err != nil {
			t.Fatal(err)
		}
		return r.RenderEvents()
	}
	if run(17) == run(18) {
		t.Error("seed does not influence the schedule")
	}
}

// TestWidePoolDeterministic sanity-checks that a wide pool still yields
// one deterministic schedule when every instance is busy at once.
func TestWidePoolDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 23,
		Instances: []InstanceConfig{
			{System: "CSP-2 Small", Count: 8},
		},
	}
	var jobs []*Job
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"} {
		jobs = append(jobs, namedJob(t, "par-"+n, 8, 200, 0))
	}
	run := func() string {
		s, err := NewScheduler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed != len(jobs) {
			t.Fatalf("completed %d/%d", r.Completed, len(jobs))
		}
		return r.RenderEvents()
	}
	if run() != run() {
		t.Error("wide pool schedule not deterministic")
	}
}
