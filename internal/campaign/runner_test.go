package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
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
