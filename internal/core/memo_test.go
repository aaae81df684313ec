package core

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/simcloud"
)

// countDecompositions swaps the anatomy's (still empty) memo for one that
// counts its misses: each is one RCB run.
func countDecompositions(a *Anatomy) *atomic.Int64 {
	var builds atomic.Int64
	a.workloads = cache.New[int, simcloud.Workload](MaxMemoizedWorkloads, func(r cache.Result) {
		if r == cache.Miss {
			builds.Add(1)
		}
	})
	return &builds
}

// TestOneDecompositionPerAnatomyAndRanks: predicting on every pool system,
// planning and measuring at one rank count share a single RCB run.
func TestOneDecompositionPerAnatomyAndRanks(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	if n := a.MemoizedWorkloads(); n != 0 {
		t.Fatalf("preparing the anatomy left %d memoised decompositions", n)
	}
	builds := countDecompositions(a)

	for _, sys := range machine.Catalog() {
		if _, err := fw.PredictDirect(a, sys.Abbrev, 16); err != nil {
			t.Fatalf("%s: %v", sys.Abbrev, err)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("direct predictions on %d systems at one rank count ran %d decompositions, want 1",
			len(machine.Catalog()), got)
	}

	w, err := fw.Workload(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Measure(a, "CSP-2", 16, 10); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("Workload and Measure at the predicted rank count brought decompositions to %d, want 1", got)
	}

	// A new rank count is one more; Predict decomposes and Workload reuses it.
	if _, err := fw.PredictDirect(a, "CSP-2", 36); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Workload(a, 36); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 2 {
		t.Errorf("a new rank count brought decompositions to %d, want 2", got)
	}

	// The memoised workload is the decomposition itself.
	p, err := decomp.RCB(a.Lattice, 16, a.Access)
	if err != nil {
		t.Fatal(err)
	}
	if want := simcloud.FromPartition(a.Name, a.Lattice.N(), p); !reflect.DeepEqual(w, want) {
		t.Error("the memoised workload differs from a fresh decomposition")
	}

	// Errors are reported, not memoised.
	if _, err := fw.Workload(a, a.Lattice.N()+1); err == nil {
		t.Error("want an error for more ranks than fluid sites")
	}
	if got := a.MemoizedWorkloads(); got != 2 {
		t.Errorf("memo holds %d workloads after a failed request, want 2", got)
	}
}

// TestWorkloadMemoBoundedAndConcurrent: the memo never grows past its
// cap, drops the least recently used count first, recomputes a dropped
// count to the identical workload, and takes concurrent callers (run
// under -race).
func TestWorkloadMemoBoundedAndConcurrent(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	builds := countDecompositions(a)
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
				if n := a.MemoizedWorkloads(); n > MaxMemoizedWorkloads {
					t.Errorf("memo holds %d workloads, cap %d", n, MaxMemoizedWorkloads)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := a.MemoizedWorkloads(); n != MaxMemoizedWorkloads {
		t.Errorf("memo holds %d workloads after %d distinct counts, want the cap %d",
			n, 3*MaxMemoizedWorkloads, MaxMemoizedWorkloads)
	}

	before := builds.Load()
	again, err := fw.Workload(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != before+1 {
		t.Error("the oldest count was still memoised after the cap was passed three times over")
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("recomputing an evicted count gave a different workload")
	}
}

// TestWorkloadHitDoesNotWaitBehindMiss: while one rank count is being
// decomposed, a count already memoised is served. The miss is held open
// on the memo itself, under a count nothing else asks for.
func TestWorkloadHitDoesNotWaitBehindMiss(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	if _, err := a.Workload(16); err != nil {
		t.Fatal(err)
	}

	building, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := a.workloads.Get(context.Background(), 48, func() (simcloud.Workload, error) {
			close(building)
			<-release
			return simcloud.Workload{}, nil
		})
		if err != nil {
			t.Errorf("held miss: %v", err)
		}
	}()
	<-building

	hit := make(chan error, 1)
	go func() {
		_, err := a.Workload(16)
		hit <- err
	}()
	select {
	case err := <-hit:
		if err != nil {
			t.Errorf("hit during a miss on another count: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a memoised count waited behind a decomposition of another count")
	}
	close(release)
	wg.Wait()
}

// TestCachedAnatomySharesLatticeNotName: two jobs over one geometry and
// scale prepare it once and share the lattice, the tuned model and every
// decomposition, while each one's workloads, summaries and records carry
// its own name.
func TestCachedAnatomySharesLatticeNotName(t *testing.T) {
	fw := framework(t)
	var lookups [3]int
	fw.Anatomies = cache.New[AnatomyKey, *Anatomy](MaxCachedAnatomies, func(r cache.Result) { lookups[r]++ })
	domains := 0
	dom := func() (*geometry.Domain, error) {
		domains++
		return geometry.Cylinder(40, 5)
	}
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	ctx := context.Background()
	a, err := fw.CachedAnatomy(ctx, "patient-a", "cylinder", 5, p, dom)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fw.CachedAnatomy(ctx, "patient-b", "cylinder", 5, p, dom)
	if err != nil {
		t.Fatal(err)
	}
	if domains != 1 || lookups != [3]int{cache.Miss: 1, cache.Hit: 1} {
		t.Errorf("two names on one lattice: %d domains built, lookups %v; want one build and one hit", domains, lookups)
	}
	if a.Lattice != b.Lattice || a.General != b.General {
		t.Error("the two anatomies do not share one lattice and one tuned model")
	}
	if a.Name != "patient-a" || b.Name != "patient-b" || a.Summary.Name != "patient-a" || b.Summary.Name != "patient-b" {
		t.Errorf("names %q/%q, summaries %q/%q", a.Name, b.Name, a.Summary.Name, b.Summary.Name)
	}

	wa, err := a.Workload(8)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.Workload(8)
	if err != nil {
		t.Fatal(err)
	}
	if wa.Name != "patient-a" || wb.Name != "patient-b" {
		t.Errorf("workloads named %q and %q", wa.Name, wb.Name)
	}
	if &wa.Tasks[0] != &wb.Tasks[0] || a.MemoizedWorkloads() != 1 || b.MemoizedWorkloads() != 1 {
		t.Error("the second name decomposed the shared lattice again")
	}

	// Another scale, other parameters or another node width is another
	// lattice.
	if _, err := fw.CachedAnatomy(ctx, "patient-c", "cylinder", 5, lbm.Params{Tau: 0.8, UMax: 0.02}, dom); err != nil {
		t.Fatal(err)
	}
	if domains != 2 || fw.Anatomies.Len() != 2 {
		t.Errorf("a different tau: %d domains built, %d anatomies cached; want 2 and 2", domains, fw.Anatomies.Len())
	}

	// A record made from a shared lattice is filed under its job.
	pred, err := fw.PredictDirect(b, "CSP-2", 8)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := fw.Measure(b, "CSP-2", 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Record(b, pred, meas); err != nil {
		t.Fatal(err)
	}
	if got := fw.Monitor.Series("patient-b", "CSP-2", 8); len(got) != 1 {
		t.Errorf("%d samples filed under patient-b, want 1", len(got))
	}
}

// TestAnatomyHoldsNoDistributions: a prepared anatomy is topology, and
// no solver state. What it keeps alive is less than the distribution
// array a solver over its lattice would hold (152 bytes a site), and less
// than the solver's link table (76 bytes a site): the lattice derives
// link rows on demand and stores none.
func TestAnatomyHoldsNoDistributions(t *testing.T) {
	fw := framework(t)
	dom, err := geometry.Cylinder(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	a, err := fw.PrepareAnatomy("cylinder", dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	held := int64(heap()) - int64(before)
	if one := int64(a.Lattice.N() * lbm.NQ * 8); held >= one {
		t.Errorf("a prepared anatomy of %d sites keeps %d bytes alive; one distribution array is %d",
			a.Lattice.N(), held, one)
	}
	if table := int64(a.Lattice.N() * lbm.NQ * 4); held >= table {
		t.Errorf("a prepared anatomy of %d sites keeps %d bytes alive; one link table is %d",
			a.Lattice.N(), held, table)
	}
	runtime.KeepAlive(a)
}

// TestAnatomyKeepsTheSweepLevelsAskedFor: the calibration sweep decomposes
// the lattice at every calibration count anyway, so an anatomy built for a
// caller who says which counts it wants hands those over without another
// decomposition — and keeps no level nobody asked for.
func TestAnatomyKeepsTheSweepLevelsAskedFor(t *testing.T) {
	fw := framework(t)
	dom := func() (*geometry.Domain, error) { return geometry.Cylinder(40, 5) }
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	ctx := context.Background()
	a, err := fw.CachedAnatomy(ctx, "patient-a", "cylinder", 5, p, dom, 8, 36)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(CalibrationCounts(a.Lattice.N()), 8) || slices.Contains(CalibrationCounts(a.Lattice.N()), 36) {
		t.Fatalf("the test wants 8 among the calibration counts and 36 not: %v", CalibrationCounts(a.Lattice.N()))
	}
	if n := a.MemoizedWorkloads(); n != 1 {
		t.Fatalf("asked for ranks 8 and 36, the new anatomy holds %d workloads; want the one calibration level", n)
	}
	w, err := a.Workload(8)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.Decompositions(); n != 0 {
		t.Errorf("Workload(8) decomposed %d times; the sweep had that level", n)
	}
	part, err := decomp.RCB(a.Lattice, 8, a.Access)
	if err != nil {
		t.Fatal(err)
	}
	if want := simcloud.FromPartition("patient-a", a.Lattice.N(), part); !reflect.DeepEqual(w, want) {
		t.Error("the sweep's workload differs from a fresh RCB(8)")
	}
	if _, err := a.Workload(36); err != nil {
		t.Fatal(err)
	}
	if n := a.Decompositions(); n != 1 {
		t.Errorf("%d decompositions after Workload(36), want 1: 36 is no calibration level", n)
	}

	// A hit ignores the counts: the lattice is prepared, 16 is decomposed
	// when it is asked for, once.
	b, err := fw.CachedAnatomy(ctx, "patient-b", "cylinder", 5, p, dom, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lattice != a.Lattice || b.MemoizedWorkloads() != 2 {
		t.Fatalf("the second name did not get the prepared lattice as it was (%d workloads)", b.MemoizedWorkloads())
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Workload(16); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Decompositions(); n != 2 {
		t.Errorf("%d decompositions after the second name asked for 16 twice, want 2 in all", n)
	}
}
