package campaign

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

const validConfig = `{
  "seed": 7,
  "budget_usd": 1.0,
  "objective": "min-cost",
  "deadline_seconds": 60,
  "jobs": [
    {"name": "patient-a", "geometry": "cylinder", "scale": 8, "ranks": 32, "steps": 500},
    {"name": "patient-b", "geometry": "aorta", "scale": 6, "ranks": 32, "steps": 500, "tolerance": 0.3}
  ]
}`

func TestLoadValid(t *testing.T) {
	cfg, err := Load(strings.NewReader(validConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Jobs) != 2 || cfg.BudgetUSD != 1.0 {
		t.Fatalf("config parsed wrong: %+v", cfg)
	}
	// Default tolerance filled in.
	if cfg.Jobs[0].Tolerance != 0.25 {
		t.Errorf("default tolerance = %v, want 0.25", cfg.Jobs[0].Tolerance)
	}
	if cfg.Jobs[1].Tolerance != 0.3 {
		t.Errorf("explicit tolerance overridden: %v", cfg.Jobs[1].Tolerance)
	}
}

func TestLoadRejectsBadConfigs(t *testing.T) {
	bad := []struct {
		cfg    string
		errHas []string // what the error must mention
	}{
		{`not json`, nil},
		{`{"budget_usd": 0, "jobs": [{"name":"a","geometry":"aorta","scale":6,"ranks":4,"steps":10}]}`, nil},
		{`{"budget_usd": 1, "jobs": []}`, nil},
		{`{"budget_usd": 1, "objective": "wat", "jobs": [{"name":"a","geometry":"aorta","scale":6,"ranks":4,"steps":10}]}`, nil},
		{`{"budget_usd": 1, "jobs": [{"name":"","geometry":"aorta","scale":6,"ranks":4,"steps":10}]}`, nil},
		// The error of an unknown geometry lists the vocabulary.
		{`{"budget_usd": 1, "jobs": [{"name":"a","geometry":"spleen","scale":6,"ranks":4,"steps":10}]}`, []string{`"spleen"`, "cylinder", "aorta", "cerebral", "stenosis", "bifurcation"}},
		{`{"budget_usd": 1, "jobs": [{"name":"a","geometry":"aorta","scale":0,"ranks":4,"steps":10}]}`, nil},
		{`{"budget_usd": 1, "jobs": [{"name":"a","geometry":"aorta","scale":6,"ranks":0,"steps":10}]}`, nil},
		{`{"budget_usd": 1, "jobs": [{"name":"a","geometry":"aorta","scale":6,"ranks":4,"steps":10},{"name":"a","geometry":"aorta","scale":6,"ranks":4,"steps":10}]}`, nil},
		{`{"budget_usd": 1, "unknown_field": true, "jobs": [{"name":"a","geometry":"aorta","scale":6,"ranks":4,"steps":10}]}`, nil},
	}
	for i, b := range bad {
		_, err := Load(strings.NewReader(b.cfg))
		if err == nil {
			t.Errorf("bad config %d accepted", i)
			continue
		}
		for _, want := range b.errHas {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("bad config %d: error %q does not mention %s", i, err, want)
			}
		}
	}
}

func TestRunCampaignEndToEnd(t *testing.T) {
	cfg, err := Load(strings.NewReader(validConfig))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runSerial(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Outcomes) != 2 {
		t.Fatalf("outcomes: %d, want 2 (skipped: %v)", len(sum.Outcomes), sum.Skipped)
	}
	for _, o := range sum.Outcomes {
		if !o.Completed {
			t.Errorf("job %s aborted: %s", o.Name, o.ShedReason)
		}
		if o.StepsDone != 500 {
			t.Errorf("job %s incomplete: %d steps", o.Name, o.StepsDone)
		}
		if o.System == "" || o.Pred.MFLUPS <= 0 {
			t.Errorf("job %s missing plan info: %+v", o.Name, o)
		}
	}
	if sum.SpentUSD <= 0 || sum.SpentUSD > cfg.BudgetUSD*1.5 {
		t.Errorf("spend %v implausible for budget %v", sum.SpentUSD, cfg.BudgetUSD)
	}
	// Completed runs were recorded, once each.
	if fw.Monitor.Len() != 2 {
		t.Errorf("monitor has %d samples, want 2", fw.Monitor.Len())
	}
	text := sum.Render()
	for _, want := range []string{"patient-a", "patient-b", "completed", "total spend"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestRunCampaignPinnedSystemAndSpot(t *testing.T) {
	cfg := Config{
		Seed: 3, BudgetUSD: 5, Objective: "max-value", Retries: 20,
		Jobs: []JobConfig{{
			Name: "spot-job", Geometry: "cylinder", Scale: 6,
			Ranks: 16, Steps: 300, System: "CSP-2 Small", Spot: true, Tolerance: 0.5,
		}},
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runSerial(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Outcomes) != 1 {
		t.Fatalf("outcomes: %+v", sum)
	}
	o := sum.Outcomes[0]
	if o.System != "CSP-2 Small" {
		t.Errorf("pinned system ignored: %s", o.System)
	}
	if o.StepsDone != 300 {
		t.Errorf("spot job incomplete: %d", o.StepsDone)
	}
}

func TestRunCampaignBudgetSkips(t *testing.T) {
	cfg := Config{
		Seed: 3, BudgetUSD: 1e-9, Objective: "min-cost",
		Jobs: []JobConfig{{
			Name: "too-expensive", Geometry: "cylinder", Scale: 6,
			Ranks: 16, Steps: 300, System: "CSP-2 Small",
		}},
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runSerial(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Skipped) != 1 || len(sum.Outcomes) != 0 {
		t.Errorf("budget skip failed: %+v", sum)
	}
	if !strings.Contains(sum.Render(), "skipped") {
		t.Error("summary does not show the skip")
	}
}

func TestPhysicalJobConfig(t *testing.T) {
	cfg := Config{
		Seed: 5, BudgetUSD: 5, Objective: "max-value",
		Jobs: []JobConfig{{
			Name: "coronary", Geometry: "cylinder", Ranks: 16,
			System: "CSP-2 Small",
			Physical: &PhysicalConfig{
				DiameterMM: 3, PeakSpeedMps: 0.3, HeartRateHz: 1.2,
				SitesAcross: 16, Beats: 0.002,
			},
		}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	scale, steps, params, _, err := resolve(cfg.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if scale != 8 {
		t.Errorf("scale = %v, want 8 (16 sites across)", scale)
	}
	if steps < 1 {
		t.Errorf("steps = %d", steps)
	}
	if params.UMax <= 0 || params.UMax > 0.3 {
		t.Errorf("derived inlet speed %v out of range", params.UMax)
	}
	if params.Pulsatile.Period <= 0 {
		t.Error("pulsatile waveform not derived from heart rate")
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runSerial(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Outcomes) != 1 || sum.Outcomes[0].StepsDone != steps {
		t.Fatalf("physical job did not run to completion: %+v", sum)
	}
}

func TestPhysicalConfigValidation(t *testing.T) {
	base := JobConfig{
		Name: "x", Geometry: "cylinder", Ranks: 4,
		Physical: &PhysicalConfig{DiameterMM: 3, PeakSpeedMps: 0.3, SitesAcross: 16, Beats: 1},
	}
	mix := base
	mix.Scale = 8 // both physical and lattice set
	cfg := Config{BudgetUSD: 1, Jobs: []JobConfig{mix}}
	if err := cfg.Validate(); err == nil {
		t.Error("want error for mixed physical+lattice spec")
	}
	incomplete := base
	incomplete.Physical = &PhysicalConfig{DiameterMM: 3}
	cfg = Config{BudgetUSD: 1, Jobs: []JobConfig{incomplete}}
	if err := cfg.Validate(); err == nil {
		t.Error("want error for incomplete physical spec")
	}
	steady := base
	steady.Physical = &PhysicalConfig{DiameterMM: 3, PeakSpeedMps: 0.3, SitesAcross: 16, Beats: 5}
	_, steps, params, _, err := resolve(steady)
	if err != nil {
		t.Fatal(err)
	}
	if params.Pulsatile.Period != 0 {
		t.Error("steady physical job grew a waveform")
	}
	if steps < 1 {
		t.Errorf("steady steps = %d", steps)
	}
}

// runTwoJobs runs a serial campaign of two cylinder@5 jobs pinned to
// CSP-1 under the given budget.
func runTwoJobs(t *testing.T, budget float64) (*core.Framework, Summary) {
	t.Helper()
	job := JobConfig{Geometry: "cylinder", Scale: 5, Ranks: 8, Steps: 400, System: "CSP-1", Tolerance: 0.25}
	first, second := job, job
	first.Name, second.Name = "first", "second"
	cfg := Config{Seed: 5, BudgetUSD: budget, Objective: "min-cost", Jobs: []JobConfig{first, second}}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runSerial(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw, sum
}

// TestSerialBudgetSpentSkipsTheRest: a job that finds the budget used up
// is skipped, not handed to a scheduler whose zero budget would mean
// unlimited. The budget here is exactly the first job's bill, which the
// same seed reproduces.
func TestSerialBudgetSpentSkipsTheRest(t *testing.T) {
	_, open := runTwoJobs(t, 1)
	if len(open.Outcomes) != 2 {
		t.Fatalf("with room for both, %d jobs ran", len(open.Outcomes))
	}
	budget := open.Outcomes[0].USD
	if open.Outcomes[0].Pred.MFLUPS < open.Outcomes[0].MFLUPS {
		t.Fatalf("the model is pessimistic here (predicted %.2f, measured %.2f): the governor would refuse the first job a budget of its own bill",
			open.Outcomes[0].Pred.MFLUPS, open.Outcomes[0].MFLUPS)
	}

	fw, sum := runTwoJobs(t, budget)
	if len(sum.Outcomes) != 1 || sum.Outcomes[0].Name != "first" || !sum.Outcomes[0].Completed {
		t.Fatalf("want the first job alone completed: %+v", sum.Outcomes)
	}
	if len(sum.Skipped) != 1 || sum.Skipped[0] != "second" {
		t.Errorf("skipped %v, want [second]", sum.Skipped)
	}
	if sum.SpentUSD != budget || fw.Monitor.Len() != 1 {
		t.Errorf("spent $%v of $%v with %d monitor samples; want exactly the budget and one sample",
			sum.SpentUSD, budget, fw.Monitor.Len())
	}
}

// TestSerialJobsDrawTheirOwnNoise: two identical jobs on one anatomy and
// system are two runs, each on its own noise stream.
func TestSerialJobsDrawTheirOwnNoise(t *testing.T) {
	_, sum := runTwoJobs(t, 1)
	if len(sum.Outcomes) != 2 {
		t.Fatalf("%d outcomes, want 2", len(sum.Outcomes))
	}
	if a, b := sum.Outcomes[0].MFLUPS, sum.Outcomes[1].MFLUPS; a == b {
		t.Errorf("both jobs measured %.6f MFLUPS: one noise stream", a)
	}
}

// TestFleetTier0JobIsGuardedAtTier1: a job that asks for tier0 reports
// and records the tier0 prediction but is placed and guarded at Tier 1.
// Guarded at tier0's spec-sheet estimate, it was shed at 1700/2000 steps.
func TestFleetTier0JobIsGuardedAtTier1(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
	  "seed": 5, "budget_usd": 1, "objective": "min-cost",
	  "fleet": {"instances": [{"system": "CSP-1", "count": 1}]},
	  "jobs": [{"name": "physics", "geometry": "cylinder", "scale": 5, "ranks": 8,
	            "steps": 2000, "system": "CSP-1", "tier": "tier0"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Runner{Backend: BackendFleet}.Run(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := out.Fleet.Report.Jobs[0]
	if !j.Completed || j.StepsDone != 2000 {
		t.Fatalf("tier0 job did %d/2000 steps: %s", j.StepsDone, j.ShedReason)
	}
	if j.Pred.Tier != "tier0" {
		t.Errorf("report carries tier %q, want tier0", j.Pred.Tier)
	}
}
