package campaign

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
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

// goldenProcs are the GOMAXPROCS settings the goldens are rendered
// under: the lattices of a campaign are built concurrently, one at a time
// to eight at once, and no byte of a report may tell which.
var goldenProcs = []int{1, 2, 8}

// underProcs runs f with GOMAXPROCS set to procs, restoring it after.
func underProcs(t *testing.T, procs int, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f(t)
	})
}

// countBuilds gives fw a fresh anatomy cache whose misses — the anatomies
// built — are counted in the returned counter.
func countBuilds(fw *core.Framework) *atomic.Int64 {
	builds := new(atomic.Int64)
	fw.Anatomies = cache.New[core.AnatomyKey, *core.Anatomy](core.MaxCachedAnatomies, func(r cache.Result) {
		if r == cache.Miss {
			builds.Add(1)
		}
	})
	return builds
}

// goldenConfig loads testdata/<name>.json and a fresh framework for it,
// as cmd/fleet does, counting the anatomies built on it.
func goldenConfig(t *testing.T, name string) (*core.Framework, Config, *atomic.Int64) {
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
	return fw, cfg, countBuilds(fw)
}

// goldenRun runs testdata/<name>.json on a fresh framework and returns
// the number of anatomies the run built.
func goldenRun(t *testing.T, name string, backend Backend) (*core.Framework, Config, Outcome, int) {
	t.Helper()
	fw, cfg, builds := goldenConfig(t, name)
	out, err := Runner{Backend: backend}.Run(context.Background(), fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw, cfg, out, int(builds.Load())
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

// TestFleetReportsMatchGolden: sharing prepared lattices between jobs and
// building them concurrently changes no byte of a fleet report, and
// prepares each lattice once.
func TestFleetReportsMatchGolden(t *testing.T) {
	for _, procs := range goldenProcs {
		underProcs(t, procs, func(t *testing.T) {
			for _, doc := range goldenDocs {
				_, _, out, builds := goldenRun(t, doc.name, BackendFleet)
				checkGolden(t, doc.name+".golden", out.Fleet.Render())
				if builds != doc.lattices {
					t.Errorf("%s: %d anatomies built for %d distinct lattices", doc.name, builds, doc.lattices)
				}
			}
		})
	}
}

// TestFleetTakesItsDecompositionsFromTheSweep: a lattice is built once
// with the rank counts of all its jobs and decomposes them all in one
// sweep, so every job gets its workload out of that sweep, whichever job
// of the lattice comes first, and no job decomposes anything outside it.
func TestFleetTakesItsDecompositionsFromTheSweep(t *testing.T) {
	fw, cfg, out, builds := goldenRun(t, "fleet_shared_lattice", BackendFleet)
	checkGolden(t, "fleet_shared_lattice.golden", out.Fleet.Render())
	ready, err := prepareAll(context.Background(), fw, cfg.Jobs, false) // all hits: the run prepared them
	if err != nil {
		t.Fatal(err)
	}
	lattices := map[*lbm.Lattice]int64{}
	for _, p := range ready {
		lattices[p.anatomy.Lattice] = p.anatomy.Decompositions()
	}
	if len(lattices) != builds {
		t.Fatalf("%d lattices behind the jobs, %d anatomies built", len(lattices), builds)
	}
	var outside int64
	for _, n := range lattices {
		outside += n
	}
	if outside != 0 {
		t.Errorf("%d decompositions outside the build sweeps for %d jobs on %d lattices, want 0",
			outside, len(cfg.Jobs), len(lattices))
	}
}

// TestSerialJobsOnASharedLatticeKeepTheirNames: the sequential runner
// predicts, plans, runs and records each job under its own name when two
// of them share a prepared lattice.
func TestSerialJobsOnASharedLatticeKeepTheirNames(t *testing.T) {
	for _, procs := range goldenProcs {
		underProcs(t, procs, testSerialJobsOnASharedLattice)
	}
}

func testSerialJobsOnASharedLattice(t *testing.T) {
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
