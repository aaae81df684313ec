package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/decomp"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// TestOneDecompositionPerAnatomyAndRanks: predicting on every pool system,
// planning and measuring at one rank count share a single RCB run.
func TestOneDecompositionPerAnatomyAndRanks(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	if a.workloads.builds != 0 {
		t.Fatalf("preparing the anatomy left %d memoised decompositions", a.workloads.builds)
	}

	for _, sys := range machine.Catalog() {
		if _, err := fw.PredictDirectTier(a, sys.Abbrev, 16, perfmodel.Tier1Calibrated); err != nil {
			t.Fatalf("%s: %v", sys.Abbrev, err)
		}
	}
	if got := a.workloads.builds; got != 1 {
		t.Errorf("direct predictions on %d systems at one rank count ran %d decompositions, want 1",
			len(machine.Catalog()), got)
	}

	spec, err := fw.PlanJob(a, "CSP-2", 16, 1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Measure(a, "CSP-2", 16, 10); err != nil {
		t.Fatal(err)
	}
	if got := a.workloads.builds; got != 1 {
		t.Errorf("PlanJob and Measure at the predicted rank count brought decompositions to %d, want 1", got)
	}

	// A new rank count is one more; PlanJob predicts and packages from it.
	if _, err := fw.PlanJob(a, "CSP-2", 36, 1000, 0.1); err != nil {
		t.Fatal(err)
	}
	if got := a.workloads.builds; got != 2 {
		t.Errorf("PlanJob at a new rank count brought decompositions to %d, want 2", got)
	}

	// The memoised workload is the decomposition itself.
	p, err := decomp.RCB(a.Solver, 16, a.Access)
	if err != nil {
		t.Fatal(err)
	}
	if want := simcloud.FromPartition(a.Name, a.Solver.N(), p); !reflect.DeepEqual(spec.Workload, want) {
		t.Error("PlanJob's memoised workload differs from a fresh decomposition")
	}

	// Errors are reported, not memoised.
	if _, err := fw.Workload(a, a.Solver.N()+1); err == nil {
		t.Error("want an error for more ranks than fluid sites")
	}
	if got := a.workloads.len(); got != 2 {
		t.Errorf("memo holds %d workloads after a failed request, want 2", got)
	}
}

// TestWorkloadMemoBoundedAndConcurrent: the memo never grows past its
// cap, drops the oldest count first, recomputes a dropped count to the
// identical workload, and takes concurrent callers (run under -race).
func TestWorkloadMemoBoundedAndConcurrent(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	first, err := fw.Workload(a, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for ranks := 2 + g; ranks <= 3*MaxMemoizedWorkloads; ranks += 4 {
				if _, err := fw.Workload(a, ranks); err != nil {
					t.Errorf("ranks %d: %v", ranks, err)
				}
				if n := a.workloads.len(); n > MaxMemoizedWorkloads {
					t.Errorf("memo holds %d workloads, cap %d", n, MaxMemoizedWorkloads)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := a.workloads.len(); n != MaxMemoizedWorkloads {
		t.Errorf("memo holds %d workloads after %d distinct counts, want the cap %d",
			n, 3*MaxMemoizedWorkloads, MaxMemoizedWorkloads)
	}

	before := a.workloads.builds
	again, err := fw.Workload(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.workloads.builds != before+1 {
		t.Error("the oldest count was still memoised after the cap was passed three times over")
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("recomputing an evicted count gave a different workload")
	}
}
