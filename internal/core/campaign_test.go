package core_test

import (
	"context"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machine"
)

// TestFleetCampaignRunsNoCalibration: a fleet campaign prices every job
// with the direct model, so running the fleet example document fits no
// generalized model. The serial backend, which recommends each unpinned
// job a system from that model, fits it once per distinct lattice.
func TestFleetCampaignRunsNoCalibration(t *testing.T) {
	f, err := os.Open("../campaign/testdata/fleet_example.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := campaign.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	type lattice struct {
		geometry string
		scale    float64
	}
	lattices := map[lattice]bool{}
	for _, j := range cfg.Jobs {
		if j.System != "" || j.Physical != nil {
			t.Fatalf("job %s is pinned or physical; the count below assumes neither", j.Name)
		}
		lattices[lattice{j.Geometry, j.Scale}] = true
	}
	for _, c := range []struct {
		backend campaign.Backend
		want    int
	}{
		{campaign.BackendFleet, 0},
		{campaign.BackendSerial, len(lattices)},
	} {
		fw, err := core.NewFramework(machine.Catalog(), 5, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		before := core.Calibrations()
		if _, err := (campaign.Runner{Backend: c.backend}).Run(context.Background(), fw, cfg); err != nil {
			t.Fatalf("%s: %v", c.backend, err)
		}
		if got := core.Calibrations() - before; got != int64(c.want) {
			t.Errorf("the %s backend ran %d calibrations on %d distinct lattices, want %d", c.backend, got, len(lattices), c.want)
		}
	}
}
