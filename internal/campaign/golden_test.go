package campaign

import (
	"context"
	"os"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/lbm"
	"repro/internal/machine"
)

// The golden reports were rendered by the commit before anatomies were
// cached (8fdbbd1): each job there built its own geometry, lattice and
// calibration. fleet_example.json is what cmd/fleet -example prints (its
// test holds the two together), eleven jobs over eight lattices;
// fleet_shared_lattice.json has two of six jobs on aorta@6 under
// different names, ranks and steps.
var goldenDocs = []struct {
	name     string
	lattices int
}{
	{"fleet_example", 8},
	{"fleet_shared_lattice", 5},
}

// goldenRun loads testdata/<name>.json and runs it on a fresh framework,
// as cmd/fleet does, counting the anatomies the run builds.
func goldenRun(t *testing.T, name string, backend Backend) (*core.Framework, Config, Outcome, int) {
	t.Helper()
	f, err := os.Open("testdata/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(machine.Catalog(), 5, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	fw.Anatomies = cache.New[core.AnatomyKey, *core.Anatomy](core.MaxCachedAnatomies, func(r cache.Result) {
		if r == cache.Miss {
			builds++
		}
	})
	out, err := Runner{Backend: backend}.Run(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw, cfg, out, builds
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report differs from testdata/%s:\n%s", file, got)
	}
}

// TestFleetReportsMatchGolden: sharing prepared lattices between jobs
// changes no byte of a fleet report, and prepares each lattice once.
func TestFleetReportsMatchGolden(t *testing.T) {
	for _, doc := range goldenDocs {
		_, _, out, builds := goldenRun(t, doc.name, BackendFleet)
		checkGolden(t, doc.name+".golden", out.Fleet.Render())
		if builds != doc.lattices {
			t.Errorf("%s: %d anatomies built for %d distinct lattices", doc.name, builds, doc.lattices)
		}
	}
}

// TestFleetTakesItsDecompositionsFromTheSweep: a job whose rank count is
// a calibration level and who is first on its lattice gets its workload
// out of the sweep that tuned the model. In fleet_shared_lattice every
// rank count is such a level, so the only decompositions left are those
// of jobs arriving at a lattice already prepared: at most jobs − lattices.
func TestFleetTakesItsDecompositionsFromTheSweep(t *testing.T) {
	fw, cfg, out, builds := goldenRun(t, "fleet_shared_lattice", BackendFleet)
	checkGolden(t, "fleet_shared_lattice.golden", out.Fleet.Render())
	lattices := map[*lbm.Lattice]int64{}
	for _, j := range cfg.Jobs {
		a, _, _, err := prepare(context.Background(), fw, j) // a hit: the run prepared it
		if err != nil {
			t.Fatal(err)
		}
		lattices[a.Lattice] = a.Decompositions()
	}
	if len(lattices) != builds {
		t.Fatalf("%d lattices behind the jobs, %d anatomies built", len(lattices), builds)
	}
	var outside int64
	for _, n := range lattices {
		outside += n
	}
	if limit := int64(len(cfg.Jobs) - len(lattices)); outside > limit {
		t.Errorf("%d decompositions outside the calibration sweeps for %d jobs on %d lattices, want at most %d",
			outside, len(cfg.Jobs), len(lattices), limit)
	}
}

// TestSerialJobsOnASharedLatticeKeepTheirNames: the sequential runner
// predicts, plans, runs and records each job under its own name when two
// of them share a prepared lattice.
func TestSerialJobsOnASharedLatticeKeepTheirNames(t *testing.T) {
	fw, cfg, out, builds := goldenRun(t, "fleet_shared_lattice", BackendSerial)
	checkGolden(t, "fleet_shared_lattice.serial.golden", out.Serial.Render())
	if builds != 5 {
		t.Errorf("%d anatomies built for 5 distinct lattices", builds)
	}
	if len(out.Serial.Outcomes) != len(cfg.Jobs) || fw.Monitor.Len() != len(cfg.Jobs) {
		t.Fatalf("%d outcomes and %d samples for %d jobs", len(out.Serial.Outcomes), fw.Monitor.Len(), len(cfg.Jobs))
	}
	for i, j := range cfg.Jobs {
		o := out.Serial.Outcomes[i]
		if o.Name != j.Name || o.Ranks != j.Ranks || !o.Completed {
			t.Errorf("job %s: outcome %q over %d ranks (completed %v), want its own name, %d ranks and completion",
				j.Name, o.Name, o.Ranks, o.Completed, j.Ranks)
		}
		if n := len(fw.Monitor.Series(j.Name, o.System, j.Ranks)); n != 1 {
			t.Errorf("job %s: %d monitor samples under its name on %s at %d ranks, want 1", j.Name, n, o.System, j.Ranks)
		}
	}
}
