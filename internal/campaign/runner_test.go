package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/machine"
)

func TestParseBackend(t *testing.T) {
	good := map[string]Backend{
		"": BackendAuto, "auto": BackendAuto,
		"serial": BackendSerial, "fleet": BackendFleet,
	}
	for s, want := range good {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseBackend("mainframe"); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestRunnerResolve(t *testing.T) {
	serialCfg := Config{}
	fleetCfg := Config{Fleet: &FleetConfig{}}

	cases := []struct {
		runner  Runner
		cfg     Config
		want    Backend
		wantErr bool
	}{
		{Runner{}, serialCfg, BackendSerial, false},
		{Runner{}, fleetCfg, BackendFleet, false},
		{Runner{Backend: BackendSerial}, fleetCfg, BackendSerial, false},
		{Runner{Backend: BackendFleet}, fleetCfg, BackendFleet, false},
		{Runner{Backend: BackendFleet}, serialCfg, "", true},
		{Runner{Backend: Backend("mainframe")}, serialCfg, "", true},
	}
	for i, tc := range cases {
		got, err := tc.runner.resolve(tc.cfg)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("case %d: resolve = %v, %v; want %v (err %v)", i, got, err, tc.want, tc.wantErr)
		}
	}
}

// TestRunnerMatchesRun: the Runner entry produces the same serial summary
// as the sequential engine called directly on an identically seeded
// framework.
func TestRunnerMatchesRun(t *testing.T) {
	cfg, err := Load(strings.NewReader(validConfig))
	if err != nil {
		t.Fatal(err)
	}
	fw1, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fw2, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}

	want, err := runSerial(context.Background(), fw1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := Runner{Backend: BackendSerial}.Run(context.Background(), fw2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Backend != BackendSerial || outcome.Serial == nil || outcome.Fleet != nil {
		t.Fatalf("outcome shape wrong: %+v", outcome)
	}
	if got := outcome.Render(); got != want.Render() {
		t.Errorf("Runner render diverges from Run:\n--- runner\n%s--- run\n%s", got, want.Render())
	}
}

// TestRunnerInterrupted: a cancelled context stops the campaign at the
// next clean point with ErrInterrupted and the partial summary intact.
func TestRunnerInterrupted(t *testing.T) {
	cfg, err := Load(strings.NewReader(validConfig))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupt before the first job

	outcome, err := Runner{}.Run(ctx, fw, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if outcome.Serial == nil {
		t.Fatal("interrupted run lost its partial summary")
	}
	if n := len(outcome.Serial.Outcomes); n != 0 {
		t.Errorf("pre-cancelled run completed %d jobs, want 0", n)
	}
}

// TestRunFleetInterrupted covers the fleet backend's clean point.
func TestRunFleetInterrupted(t *testing.T) {
	cfg, err := Load(strings.NewReader(fleetConfigJSON))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err = Runner{Backend: BackendFleet}.Run(ctx, fw, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// TestPreCancelledCampaignBuildsNothing: a campaign cancelled before it
// starts builds no lattice on either backend.
func TestPreCancelledCampaignBuildsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, be := range []Backend{BackendSerial, BackendFleet} {
		fw, cfg, builds := goldenConfig(t, "fleet_shared_lattice")
		if _, err := (Runner{Backend: be}).Run(ctx, fw, cfg); !errors.Is(err, ErrInterrupted) {
			t.Errorf("%s: err = %v, want ErrInterrupted", be, err)
		}
		if n := builds.Load(); n != 0 {
			t.Errorf("%s: a cancelled campaign built %d anatomies", be, n)
		}
	}
}

// badRanks is a rank count no test lattice has fluid sites for.
const badRanks = 1 << 20

// TestSerialCampaignThatCannotPrepareRunsNothing: a job whose lattice
// cannot take its rank count stops the serial campaign before the job
// ahead of it runs, so the framework records no run and no time for a
// campaign that reports no spend.
func TestSerialCampaignThatCannotPrepareRunsNothing(t *testing.T) {
	cfg := Config{Seed: 5, BudgetUSD: 1, Objective: "min-cost", Jobs: []JobConfig{
		{Name: "fine", Geometry: "cylinder", Scale: 5, Ranks: 8, Steps: 400, System: "CSP-1"},
		{Name: "too-wide", Geometry: "cylinder", Scale: 3, Ranks: badRanks, Steps: 400, System: "CSP-1"},
	}}
	fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runSerial(context.Background(), fw, cfg)
	if err == nil || !strings.Contains(err.Error(), `"too-wide"`) {
		t.Fatalf("err = %v, want the error of job too-wide", err)
	}
	if len(sum.Outcomes) != 0 || sum.SpentUSD != 0 {
		t.Errorf("summary %+v, want nothing run", sum)
	}
	if n, c := fw.Monitor.Len(), fw.Provider.Clock(); n != 0 || c != 0 {
		t.Errorf("the framework holds %d runs and its clock reads %g s, want 0 and 0", n, c)
	}
}

// TestPrepareNamesTheEarliestFailingJob: of two jobs that cannot be
// prepared, both backends report the first in campaign order, though the
// second's larger lattice is built first. Run it with -count=20.
func TestPrepareNamesTheEarliestFailingJob(t *testing.T) {
	cfg := Config{Seed: 5, BudgetUSD: 1, Objective: "min-cost",
		Fleet: &FleetConfig{Instances: []fleet.InstanceConfig{{System: "CSP-1", Count: 1}}},
		Jobs: []JobConfig{
			{Name: "fine", Geometry: "cylinder", Scale: 4, Ranks: 8, Steps: 400},
			{Name: "first-bad", Geometry: "cylinder", Scale: 3, Ranks: badRanks, Steps: 400},
			{Name: "second-bad", Geometry: "aorta", Scale: 6, Ranks: badRanks, Steps: 400},
		}}
	for _, be := range []Backend{BackendSerial, BackendFleet} {
		fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Runner{Backend: be}.Run(context.Background(), fw, cfg)
		if err == nil || !strings.Contains(err.Error(), `"first-bad"`) {
			t.Errorf("%s: err = %v, want the error of job first-bad", be, err)
		}
	}
}
