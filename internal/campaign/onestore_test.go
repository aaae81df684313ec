package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/fleet"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/monitor"
)

// The three tests in this file fail at f851703, where the framework kept
// a second record store in perfmodel and four write protocols kept
// the two in step by hand.

// storedSamples reads the store back through its one on-disk format.
func storedSamples(t *testing.T, st *monitor.Store) []monitor.Sample {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var out []monitor.Sample
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// snapshot copies the store so a correction can be read as it stood
// before a later campaign appended to it.
func snapshot(t *testing.T, st *monitor.Store) *monitor.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var out monitor.Store
	if err := out.Load(&buf); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestObserveThenRunFleetCountsEachRunOnce: three Observe cycles and a
// four-job fleet run are seven measured runs, and each weighs once in
// the correction. The parent re-fed the whole monitor into its second
// store after the fleet run, so the three observed runs counted twice.
func TestObserveThenRunFleetCountsEachRunOnce(t *testing.T) {
	fw, cfg := fleetFramework(t)
	dom, err := BuildGeometry("cylinder", 5)
	if err != nil {
		t.Fatal(err)
	}
	anatomy, err := fw.PrepareAnatomy("observed", dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := fw.Observe(anatomy, "CSP-1", 8, 50); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runFleet(context.Background(), fw, cfg); err != nil {
		t.Fatal(err)
	}
	samples := storedSamples(t, &fw.Monitor)
	if len(samples) != 7 {
		t.Fatalf("store holds %d samples, want 7", len(samples))
	}
	var ratios []float64
	for _, s := range samples {
		if s.System == "CSP-1" && s.Model == "direct" {
			ratios = append(ratios, s.MFLUPS/s.Predicted)
		}
	}
	if len(ratios) < 4 {
		t.Fatalf("only %d CSP-1 runs; the fleet placed none there", len(ratios))
	}
	want := fit.GeoMean(ratios)
	got := fw.Monitor.Correction("CSP-1", "direct")
	if math.Abs(got.Scalar-want) > 1e-12 || got.Terms.N != 0 && got.Terms.N != len(ratios) {
		t.Errorf("CSP-1 correction = %+v, want the scalar %.6f and a fit over the %d stored runs", got, want, len(ratios))
	}
}

// checkPricedRefined asserts what a fleet campaign prepared on a used
// framework owes the one before it: each job is priced by its Tier 1
// prediction refined by the correction the store holds, and reports and
// exports the unrefined one, so the store keeps learning against the
// model's own output.
func checkPricedRefined(t *testing.T, fw *core.Framework, cfg Config) {
	t.Helper()
	ready, err := prepareAll(context.Background(), fw, cfg.Jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	systems := []string{"CSP-2 Small", "CSP-1"}
	corrected := 0
	for i, j := range cfg.Jobs {
		fj, err := fleetJob(fw, ready[i].anatomy, j, ready[i].steps, systems)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range systems {
			raw, err := fw.Unrefined(ready[i].anatomy, core.Query{System: sys, Model: "direct", Ranks: j.Ranks})
			if err != nil {
				t.Fatal(err)
			}
			c := fw.Monitor.Correction(sys, "direct")
			if c.Scalar != 1 {
				corrected++
			}
			if fj.Pred[sys] != raw {
				t.Errorf("job %s on %s carries %+v, want the unrefined %+v", j.Name, sys, fj.Pred[sys], raw)
			}
			if want := c.Apply(raw).SecondsPerStep; fj.PerStep[sys] != want {
				t.Errorf("job %s on %s priced at %g s/step, want raw %g corrected by %+v = %g",
					j.Name, sys, fj.PerStep[sys], raw.SecondsPerStep, c, want)
			}
		}
	}
	if corrected == 0 {
		t.Fatal("no system holds a correction after a whole campaign; nothing compared")
	}
}

// checkSecondCampaign asserts that a second fleet campaign on fw, run
// after before was snapshot, keeps one non-decreasing timeline and
// reports the same unrefined predictions as first, the same config run
// on an empty store.
func checkSecondCampaign(t *testing.T, fw *core.Framework, before *monitor.Store, first, second *fleet.Report) {
	t.Helper()
	samples := storedSamples(t, &fw.Monitor)
	if want := before.Len() + second.Completed; len(samples) != want {
		t.Errorf("store holds %d samples, want %d", len(samples), want)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TimeS < samples[i-1].TimeS {
			t.Fatalf("sample %d at t=%g precedes sample %d at t=%g", i, samples[i].TimeS, i-1, samples[i-1].TimeS)
		}
	}
	for i, j := range second.Jobs {
		if raw := first.Jobs[i]; j.System == raw.System && j.Pred != raw.Pred {
			t.Errorf("job %s reports %+v, want the unrefined %+v", j.Name, j.Pred, raw.Pred)
		}
	}
}

// TestSecondCampaignOnOneFramework: the fleet clock restarts at zero, so
// at the parent the second export failed — after its schedule had run —
// with "sample at t=58.96 arrives before t=161.6", and refinement could
// not carry from one campaign to the next.
func TestSecondCampaignOnOneFramework(t *testing.T) {
	_, fresh := runFleetOnce(t)

	t.Run("RunFleet twice", func(t *testing.T) {
		fw, cfg := fleetFramework(t)
		if _, err := runFleet(context.Background(), fw, cfg); err != nil {
			t.Fatal(err)
		}
		checkPricedRefined(t, fw, cfg)
		before := snapshot(t, &fw.Monitor)
		second, err := runFleet(context.Background(), fw, cfg)
		if err != nil {
			t.Fatalf("second fleet campaign: %v", err)
		}
		checkSecondCampaign(t, fw, before, fresh.Report, second.Report)
	})

	t.Run("Run then RunFleet", func(t *testing.T) {
		fw, cfg := fleetFramework(t)
		serial, err := runSerial(context.Background(), fw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := snapshot(t, &fw.Monitor)
		if before.Len() != len(serial.Outcomes) || before.Len() == 0 {
			t.Fatalf("serial campaign stored %d samples for %d outcomes", before.Len(), len(serial.Outcomes))
		}
		checkPricedRefined(t, fw, cfg)
		second, err := runFleet(context.Background(), fw, cfg)
		if err != nil {
			t.Fatalf("fleet campaign after a serial one: %v", err)
		}
		checkSecondCampaign(t, fw, before, fresh.Report, second.Report)
	})
}

// TestOtherTierResidualsDoNotMoveCorrection: a job planned at tier0 is
// measured against a spec-sheet estimate; its residual stays in the
// store for drift telemetry but is not a Tier 1 residual. At the parent
// it moved the CSP-1 correction at 8 ranks from 0.888 to 0.648.
func TestOtherTierResidualsDoNotMoveCorrection(t *testing.T) {
	run := func(jobs ...JobConfig) *core.Framework {
		cfg := Config{Seed: 5, BudgetUSD: 1, Objective: "min-cost", Jobs: jobs}
		fw, err := core.NewFramework(machine.Catalog(), 2, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := runSerial(context.Background(), fw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Outcomes) != len(jobs) || fw.Monitor.Len() != len(jobs) {
			t.Fatalf("%d outcomes, %d samples for %d jobs", len(sum.Outcomes), fw.Monitor.Len(), len(jobs))
		}
		return fw
	}
	calibrated := JobConfig{Name: "calibrated", Geometry: "cylinder", Scale: 5, Ranks: 8, Steps: 200, System: "CSP-1"}
	physics := calibrated
	physics.Name, physics.Tier = "physics", "tier0"

	without := run(calibrated).Monitor.Correction("CSP-1", "direct")
	fw := run(calibrated, physics)
	if with := fw.Monitor.Correction("CSP-1", "direct"); with != without {
		t.Errorf("correction = %+v with the tier0 job, %+v without it", with, without)
	}
	if without.Scalar == 1 {
		t.Error("the tier1 job left no correction")
	}
	samples := storedSamples(t, &fw.Monitor)
	if samples[0].Tier != "" || samples[1].Tier != "tier0" {
		t.Errorf("stored tiers = %q, %q; want \"\" (Tier 1) and tier0", samples[0].Tier, samples[1].Tier)
	}
}
