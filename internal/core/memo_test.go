package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
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
	before := calibrations.Load()
	ga, errA := a.General()
	gb, errB := b.General()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.Lattice != b.Lattice || ga != gb || calibrations.Load() != before+1 {
		t.Errorf("the two anatomies do not share one lattice and one tuned model (%d calibrations)", calibrations.Load()-before)
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

// TestAnatomyKeepsTheSweepLevelsAskedFor: an anatomy built for a caller
// who says which rank counts it wants decomposes exactly those, in one
// sweep, and memoises each: asking for one later costs no decomposition,
// and no other count is decomposed before it is asked for. The build
// runs no calibration.
func TestAnatomyKeepsTheSweepLevelsAskedFor(t *testing.T) {
	fw := framework(t)
	dom := func() (*geometry.Domain, error) { return geometry.Cylinder(40, 5) }
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	ctx := context.Background()
	before := calibrations.Load()
	a, err := fw.CachedAnatomy(ctx, "patient-a", "cylinder", 5, p, dom, 8, 36, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := calibrations.Load() - before; n != 0 {
		t.Errorf("building the anatomy ran %d calibrations, want 0", n)
	}
	if n := a.MemoizedWorkloads(); n != 2 {
		t.Fatalf("asked for ranks 8, 36 and 8 again, the new anatomy holds %d workloads; want 2", n)
	}
	for _, k := range []int{8, 36} {
		w, err := a.Workload(k)
		if err != nil {
			t.Fatal(err)
		}
		if n := a.Decompositions(); n != 0 {
			t.Errorf("Workload(%d) decomposed %d times; the build had that count", k, n)
		}
		part, err := decomp.RCB(a.Lattice, k, a.Access)
		if err != nil {
			t.Fatal(err)
		}
		if want := simcloud.FromPartition("patient-a", a.Lattice.N(), part); !reflect.DeepEqual(w, want) {
			t.Errorf("the build's workload at %d ranks differs from a fresh RCB(%d)", k, k)
		}
	}
	if _, err := a.Workload(32); err != nil {
		t.Fatal(err)
	}
	if n := a.Decompositions(); n != 1 {
		t.Errorf("%d decompositions after Workload(32), want 1: 32 was not asked for", n)
	}

	// A hit ignores the counts: the lattice is prepared, 16 is decomposed
	// when it is asked for, once.
	b, err := fw.CachedAnatomy(ctx, "patient-b", "cylinder", 5, p, dom, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lattice != a.Lattice || b.MemoizedWorkloads() != 3 {
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

	// Counts no task count can be, and counts past the memo's cap, are
	// left to Workload.
	many := []int{0, -3, a.Lattice.N() + 1}
	for k := 1; k <= MaxMemoizedWorkloads+8; k++ {
		many = append(many, k)
	}
	c, err := NewAnatomy("patient-c", mustDomain(t, dom), p, 36, many...)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.MemoizedWorkloads(); n != MaxMemoizedWorkloads {
		t.Errorf("asked for %d valid counts, the anatomy holds %d workloads; want the cap %d", MaxMemoizedWorkloads+8, n, MaxMemoizedWorkloads)
	}
	if _, err := c.Workload(a.Lattice.N() + 1); err == nil {
		t.Error("want an error for more ranks than fluid sites")
	}
}

// TestGeneralCalibratesOnce: eight goroutines asking a cold anatomy for
// its generalized model start one calibration between them, and each gets
// the model perfmodel.CalibrateGeneral fits to the same lattice. Run it
// under -race.
func TestGeneralCalibratesOnce(t *testing.T) {
	fw := framework(t)
	a := anatomy(t, fw)
	want, err := perfmodel.CalibrateGeneral(a.Lattice, a.Access, CalibrationCounts(a.Lattice.N()), machine.WidestNode(machine.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	before := calibrations.Load()
	var wg sync.WaitGroup
	got := make([]perfmodel.GeneralModel, 8)
	errs := make([]error, len(got))
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = a.General()
		}()
	}
	wg.Wait()
	if n := calibrations.Load() - before; n != 1 {
		t.Errorf("%d concurrent General calls ran %d calibrations, want 1", len(got), n)
	}
	for g := range got {
		if errs[g] != nil || got[g] != want {
			t.Errorf("goroutine %d: %+v (%v), want %+v", g, got[g], errs[g], want)
		}
	}
}

// TestTooSmallToCalibrateStillPredictsDirect: a lattice with fewer fluid
// sites than the calibration sweep has tasks builds, and serves the
// direct model; the generalized model, and whatever needs it, reports
// the calibration's error.
func TestTooSmallToCalibrateStillPredictsDirect(t *testing.T) {
	fw := framework(t)
	a, err := NewAnatomy("speck", tinyDomain(), lbm.Params{Tau: 0.9, UMax: 0.02}, 36, 1, 2)
	if err != nil {
		t.Fatalf("a two-site lattice: %v", err)
	}
	if n := a.Lattice.N(); n >= len(CalibrationCounts(n)) {
		t.Fatalf("the lattice has %d sites, enough for the sweep %v", n, CalibrationCounts(n))
	}
	for _, k := range []int{1, 2} {
		if _, err := fw.PredictDirect(a, "CSP-2", k); err != nil {
			t.Errorf("direct at %d ranks: %v", k, err)
		}
	}
	if _, err := a.General(); err == nil || !strings.Contains(err.Error(), "calibrating") {
		t.Errorf("General on a two-site lattice: %v, want a calibration error", err)
	}
	if _, err := fw.Predict(a, Query{System: "CSP-2", Model: perfmodel.ModelGeneral, Ranks: 2}); err == nil {
		t.Error("a generalized prediction on a two-site lattice succeeded")
	}
	if _, err := fw.Assess(a, 2, 10, ""); err == nil {
		t.Error("assessing a two-site lattice succeeded")
	}
}

// tinyDomain is a two-site channel, inlet to outlet: too few fluid sites
// for the three task counts a calibration sweep needs.
func tinyDomain() *geometry.Domain {
	return &geometry.Domain{Name: "speck", NX: 2, NY: 1, NZ: 1, Types: []geometry.PointType{geometry.Inlet, geometry.Outlet}}
}

func mustDomain(t *testing.T, dom func() (*geometry.Domain, error)) *geometry.Domain {
	t.Helper()
	d, err := dom()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCachedBuildsTakeTurnsAtTheDomain: while one cached build holds its
// domain, a build of another key does not start its own; a caller whose
// ctx ends in that wait gets ctx's error, and the build goes on once the
// domain is done with.
func TestCachedBuildsTakeTurnsAtTheDomain(t *testing.T) {
	c := cache.New[AnatomyKey, *Anatomy](MaxCachedAnatomies, nil)
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	holding, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := CachedAnatomy(context.Background(), c, AnatomyKey{"cylinder", 5, p, 36}, "a", func() (*geometry.Domain, error) {
			close(holding)
			<-release
			return geometry.Cylinder(40, 5)
		})
		if err != nil {
			t.Errorf("the held build: %v", err)
		}
	}()
	<-holding

	var started atomic.Bool
	other := func() (*geometry.Domain, error) {
		started.Store(true)
		return geometry.Cylinder(48, 6)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := CachedAnatomy(ctx, c, AnatomyKey{"cylinder", 6, p, 36}, "b", other); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("a build waiting on another's domain: %v, want the deadline", err)
	}
	if started.Load() {
		t.Error("a second domain was built while the first was held")
	}

	done := make(chan error, 1)
	go func() {
		_, err := CachedAnatomy(context.Background(), c, AnatomyKey{"cylinder", 6, p, 36}, "b", other)
		done <- err
	}()
	close(release)
	wg.Wait()
	if err := <-done; err != nil || !started.Load() {
		t.Errorf("the waiting build after the first was done: %v (started %v)", err, started.Load())
	}
}
