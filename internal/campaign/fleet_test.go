package campaign

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/obs"
)

const fleetConfigJSON = `{
  "seed": 11,
  "budget_usd": 1.0,
  "objective": "min-cost",
  "fleet": {
    "instances": [
      {"system": "CSP-2 Small", "count": 1, "spot": true},
      {"system": "CSP-2 Small", "count": 1},
      {"system": "CSP-1", "count": 1}
    ],
    "max_retries": 10,
    "preemption_per_node_hour": 2e5
  },
  "jobs": [
    {"name": "fleet-a", "geometry": "cylinder", "scale": 6, "ranks": 16, "steps": 300, "priority": 2},
    {"name": "fleet-b", "geometry": "cylinder", "scale": 6, "ranks": 8, "steps": 250, "priority": 1},
    {"name": "fleet-c", "geometry": "cylinder", "scale": 5, "ranks": 8, "steps": 200,
     "on_demand_only": true},
    {"name": "fleet-d", "geometry": "cylinder", "scale": 5, "ranks": 8, "steps": 200}
  ]
}`

// fleetFramework loads the test config and characterizes a fresh
// framework under its seed.
func fleetFramework(t *testing.T) (*core.Framework, Config) {
	t.Helper()
	cfg, err := Load(strings.NewReader(fleetConfigJSON))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return fw, cfg
}

func runFleetOnce(t *testing.T) (*core.Framework, FleetSummary) {
	t.Helper()
	fw, cfg := fleetFramework(t)
	sum, err := runFleet(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw, sum
}

func TestRunFleetEndToEnd(t *testing.T) {
	fw, sum := runFleetOnce(t)
	r := sum.Report
	if r.Completed != 4 || r.Shed != 0 {
		t.Fatalf("completed %d, shed %d; jobs:\n%s", r.Completed, r.Shed, r.RenderJobs())
	}
	if r.SpentUSD <= 0 || r.SpentUSD > r.BudgetUSD {
		t.Errorf("spend $%v implausible for budget $%v", r.SpentUSD, r.BudgetUSD)
	}
	for _, j := range r.Jobs {
		if j.StepsDone != j.Steps {
			t.Errorf("job %s incomplete: %d/%d", j.Name, j.StepsDone, j.Steps)
		}
		if j.MFLUPS <= 0 || j.PredMFLUPS <= 0 {
			t.Errorf("job %s missing measured/predicted throughput: %+v", j.Name, j)
		}
	}
	// Completed jobs became samples in the refinement store, once each,
	// and the framework's clock moved past the run.
	if fw.Monitor.Len() != 4 {
		t.Errorf("monitor has %d samples, want 4", fw.Monitor.Len())
	}
	if fw.Provider.Clock() != r.MakespanS {
		t.Errorf("provider clock %v after the run, want the makespan %v", fw.Provider.Clock(), r.MakespanS)
	}
	text := sum.Render()
	for _, want := range []string{"event log", "instance utilization", "jobs", "fleet-a", "submitted", "completed"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	// The stock objectives evaluate over the run and land in the report.
	if len(sum.SLOs) != 2 {
		t.Fatalf("want 2 stock SLO statuses, got %+v", sum.SLOs)
	}
	if got := sum.SLOs[0].WindowTotal; got != 4 {
		t.Errorf("completion SLO saw %v requests, want 4", got)
	}
	for _, want := range []string{"=== slo ===", "fleet-completion", "queue-wait-p90"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	// A clean run (zero sheds) must not fire anything.
	if len(sum.Alerts) != 0 {
		t.Errorf("clean run produced alerts: %+v", sum.Alerts)
	}
}

// TestRunFleetSLODisabled: an empty non-nil declaration opts out of SLO
// evaluation and of the panel.
func TestRunFleetSLODisabled(t *testing.T) {
	cfg, err := Load(strings.NewReader(fleetConfigJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet.SLOs = []obs.SLO{}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runFleet(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SLOs != nil || strings.Contains(sum.Render(), "=== slo ===") {
		t.Fatalf("SLO evaluation ran despite empty declaration: %+v", sum.SLOs)
	}
}

// TestRunFleetSLOAlertFires: an unreachable declared objective must trip
// exactly one firing alert and render it in the report's SLO panel.
func TestRunFleetSLOAlertFires(t *testing.T) {
	cfg, err := Load(strings.NewReader(fleetConfigJSON))
	if err != nil {
		t.Fatal(err)
	}
	// Every queue wait is > 0s at some point in a contended 4-job run on
	// 3 instances, so demanding p99 <= 1s is deterministic failure bait.
	cfg.Fleet.SLOs = []obs.SLO{{Name: "impossible-wait", LatencyQuantile: 0.99, LatencyBoundS: 1}}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runFleet(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Alerts) != 1 || sum.Alerts[0].State != "firing" || sum.Alerts[0].SLO != "impossible-wait" {
		t.Fatalf("want exactly one firing alert, got %+v", sum.Alerts)
	}
	text := sum.Render()
	if !strings.Contains(text, "slo impossible-wait firing") || !strings.Contains(text, "FIRING") {
		t.Fatalf("firing alert missing from report:\n%s", text)
	}
}

// TestRunFleetDeterministic runs the whole pipeline twice from scratch:
// framework characterization, predictions, and the concurrent schedule
// must reproduce byte-for-byte under one seed.
func TestRunFleetDeterministic(t *testing.T) {
	_, s1 := runFleetOnce(t)
	_, s2 := runFleetOnce(t)
	if s1.Render() != s2.Render() {
		t.Errorf("same-seed fleet campaigns differ:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			s1.Render(), s2.Render())
	}
}

func TestRunFleetRejectsPinOutsidePool(t *testing.T) {
	cfg := Config{
		Seed: 1, BudgetUSD: 1, Objective: "min-cost",
		Fleet: &FleetConfig{Instances: []fleet.InstanceConfig{{System: "CSP-2 Small", Count: 1}}},
		Jobs: []JobConfig{{
			Name: "pinned", Geometry: "cylinder", Scale: 5, Ranks: 8, Steps: 100,
			System: "TRC",
		}},
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runFleet(context.Background(), fw, cfg); err == nil || !strings.Contains(err.Error(), "pool") {
		t.Fatalf("pin outside pool accepted: %v", err)
	}
}

// TestRunFleetRejectsPoolOutsideCatalog: a pool system the framework was
// not built with has no model prediction, so the run is refused rather
// than scheduled unpriced. The GPU instance joins the catalog only on
// request.
func TestRunFleetRejectsPoolOutsideCatalog(t *testing.T) {
	cfg := Config{
		Seed: 1, BudgetUSD: 1, Objective: "min-cost",
		Fleet: &FleetConfig{Instances: []fleet.InstanceConfig{{System: "CSP-2 GPU", Count: 1}}},
		Jobs:  []JobConfig{{Name: "gpu", Geometry: "cylinder", Scale: 5, Ranks: 4, Steps: 100}},
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runFleet(context.Background(), fw, cfg)
	if err == nil || !strings.Contains(err.Error(), `"CSP-2 GPU"`) || !strings.Contains(err.Error(), "-gpu") {
		t.Fatalf("pool system outside the catalog accepted: %v", err)
	}
}

func TestRunFleetRequiresFleetBlock(t *testing.T) {
	cfg := Config{
		Seed: 1, BudgetUSD: 1, Objective: "min-cost",
		Jobs: []JobConfig{{Name: "a", Geometry: "cylinder", Scale: 5, Ranks: 8, Steps: 100}},
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runFleet(context.Background(), fw, cfg); err == nil {
		t.Fatal("fleet backend ran without a fleet declaration")
	}
}
