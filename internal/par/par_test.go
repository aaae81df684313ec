package par

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
)

// setup builds the serial engine for dom and, over an RCB of ntasks, a
// runner each way there is: from the engine's lattice (New) and from the
// engine itself (NewRunner). All three start at rest at step 0.
func setup(t testing.TB, dom *geometry.Domain, p lbm.Params, ntasks int) (*lbm.Sparse, []*Runner) {
	t.Helper()
	serial, err := lbm.NewSparse(dom, p)
	if err != nil {
		t.Fatal(err)
	}
	part, err := decomp.RCB(serial, ntasks, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	return serial, buildBoth(t, serial, part)
}

// buildBoth builds a runner on s's lattice under part with New and one
// from s's state with NewRunner.
func buildBoth(t testing.TB, s *lbm.Sparse, part *decomp.Partition) []*Runner {
	t.Helper()
	fresh, err := New(s.Lattice, part)
	if err != nil {
		t.Fatal(err)
	}
	handed, err := NewRunner(s, part)
	if err != nil {
		t.Fatal(err)
	}
	return []*Runner{fresh, handed}
}

// sameBits fails the test unless runner holds serial's state bit for bit:
// every cell, the step count, TotalMass and MaxSpeed.
func sameBits(t testing.TB, label string, serial *lbm.Sparse, runner *Runner) {
	t.Helper()
	if runner.Steps() != serial.Steps() {
		t.Fatalf("%s: runner at step %d, serial at %d", label, runner.Steps(), serial.Steps())
	}
	for si := 0; si < serial.N(); si++ {
		want, got := serial.Cell(si), runner.Cell(si)
		for q := range want {
			if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
				t.Fatalf("%s: site %d q %d: runner %v, serial %v", label, si, q, got[q], want[q])
			}
		}
	}
	if got, want := runner.TotalMass(), serial.TotalMass(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: runner mass %v, serial %v", label, got, want)
	}
	if got, want := runner.MaxSpeed(), serial.MaxSpeed(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: runner max speed %v, serial %v", label, got, want)
	}
}

// TestParallelMatchesSerialBitwise is the central oracle: the decomposed
// run must reproduce the serial trajectory exactly, for several rank
// counts, on both periodic force-driven and inlet/outlet flows, whichever
// way the runner was built: after 0, 1, 7 and 25 steps.
func TestParallelMatchesSerialBitwise(t *testing.T) {
	cases := []struct {
		name string
		dom  func() (*geometry.Domain, error)
		p    lbm.Params
	}{
		{"periodic-cylinder", func() (*geometry.Domain, error) { return geometry.Cylinder(16, 5) },
			lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}},
		{"inlet-cylinder", func() (*geometry.Domain, error) { return geometry.Cylinder(16, 5) },
			lbm.Params{Tau: 0.9, UMax: 0.03}},
		{"aorta", func() (*geometry.Domain, error) { return geometry.Aorta(4) },
			lbm.Params{Tau: 0.95, UMax: 0.02}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ntasks := range []int{2, 5, 16} {
				dom, err := tc.dom()
				if err != nil {
					t.Fatal(err)
				}
				serial, runners := setup(t, dom, tc.p, ntasks)
				for _, steps := range []int{0, 1, 6, 18} {
					serial.Run(steps)
					for k, runner := range runners {
						runner.Run(steps)
						sameBits(t, fmt.Sprintf("ntasks=%d runner %d", ntasks, k), serial, runner)
					}
				}
			}
		})
	}
}

func TestRunnerSingleTask(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial, runners := setup(t, dom, lbm.Params{Tau: 0.9, UMax: 0.02}, 1)
	serial.Run(10)
	for _, runner := range runners {
		runner.Run(10)
		for si := 0; si < serial.N(); si++ {
			if serial.Cell(si) != runner.Cell(si) {
				t.Fatal("single-task runner diverges from serial")
			}
		}
	}
}

func TestRunnerMassMatchesSerial(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}
	serial, runners := setup(t, dom, p, 8)
	for _, steps := range []int{30, 1} { // an even, then an odd count
		serial.Run(steps)
		for _, runner := range runners {
			runner.Run(steps)
			// Summed in the serial engine's order, the mass is the serial one.
			if got, want := runner.TotalMass(), serial.TotalMass(); got != want {
				t.Errorf("after %d steps: runner mass %v, serial %v", serial.Steps(), got, want)
			}
		}
	}
}

func TestRunnerIncrementalRuns(t *testing.T) {
	// Run(a) then Run(b) on a runner from New must equal Run(a+b) on one
	// from NewRunner.
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	_, runners := setup(t, dom, p, 4)
	r1, r2 := runners[0], runners[1]
	r1.Run(9)
	r1.Run(11)
	r2.Run(20)

	if r1.Steps() != 20 || r2.Steps() != 20 {
		t.Fatalf("step counters wrong: %d, %d", r1.Steps(), r2.Steps())
	}
	for si := 0; si < len(r1.ownerOf); si++ {
		if r1.Cell(si) != r2.Cell(si) {
			t.Fatal("incremental runs diverge from single run")
		}
	}
}

// TestRunBelowOneChangesNothing: Run with a count of zero or less leaves
// the step count and every cell as they were, at an odd count, where a
// count taken off the parity would read every cell through the wrong
// layout.
func TestRunBelowOneChangesNothing(t *testing.T) {
	dom, err := geometry.Cylinder(24, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, runners := setup(t, dom, lbm.Params{Tau: 0.9, UMax: 0.02}, 2)
	for _, r := range runners {
		r.Run(3)
		want := make([][lbm.NQ]float64, len(r.ownerOf))
		for si := range want {
			want[si] = r.Cell(si)
		}
		for _, n := range []int{-1, 0, -4} {
			r.Run(n)
			if r.Steps() != 3 {
				t.Fatalf("Run(%d) after 3 steps leaves Steps() = %d", n, r.Steps())
			}
			for si := range want {
				if got := r.Cell(si); got != want[si] {
					t.Fatalf("Run(%d): cell %d is %v, was %v", n, si, got, want[si])
				}
			}
		}
	}
}

// TestRunnerLinksBytes is the byte bound of a runner's link tables on the
// benchmark's lattice, aorta@16, over two ranks: together at most 20
// bytes a fluid site, counted from the tables' capacities, as the serial
// engine's one table is (lbm's TestSparseLinksBytes). The cells on the
// cut keep explicit rows; the bulk runs either side of it do not.
func TestRunnerLinksBytes(t *testing.T) {
	dom, err := campaign.BuildGeometry("aorta", 16)
	if err != nil {
		t.Fatal(err)
	}
	_, runners := setup(t, dom, lbm.Params{Tau: 0.9, UMax: 0.02}, 2)
	for k, r := range runners {
		got := 0
		for _, rk := range r.ranks {
			got += rk.Links().Bytes()
		}
		if n := len(r.ownerOf); got > 20*n {
			t.Errorf("runner %d: 2 ranks on aorta@16 hold %d bytes of link tables for %d fluid sites (%.1f a site), bound %d",
				k, got, n, float64(got)/float64(n), 20*n)
		}
	}
}

// TestRunnerHoldsTheProblemOnce is the byte bound of a parallel run on
// the benchmark's lattice, aorta@16, over two ranks: built from the
// lattice (New), the runner retains at most one engine's distributions
// (n·NQ·8 bytes), its ranks' link tables and halos, and a slack of 16
// bytes a site — 8 for the serial site lookup (ownerOf, localOf) and 8
// for edges, boundary lists and allocator rounding, of which they take
// under 3. Built the only way
// there was before New — a serial engine, then a runner from it, the
// engine kept alive — the run holds a second set of distributions and
// links, and must exceed the same bound, or the bound tells nothing.
func TestRunnerHoldsTheProblemOnce(t *testing.T) {
	dom, err := campaign.BuildGeometry("aorta", 16)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	l, err := lbm.NewLattice(dom, p)
	if err != nil {
		t.Fatal(err)
	}
	part, err := decomp.RCB(l, 2, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	// retained returns the heap build leaves live, and what it built.
	retained := func(build func() (*Runner, any)) (uint64, *Runner) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, also := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(also)
		return after.HeapAlloc - before.HeapAlloc, r
	}
	got, r := retained(func() (*Runner, any) {
		r, err := New(l, part)
		if err != nil {
			t.Fatal(err)
		}
		return r, nil
	})
	n := l.N()
	bound := n*lbm.NQ*8 + 16*n
	for _, rk := range r.ranks {
		_, halo := rk.Slots()
		bound += rk.Links().Bytes() + 8*len(halo)
	}
	if got > uint64(bound) {
		t.Errorf("a 2-rank runner on aorta@16 (%d sites) retains %d bytes, bound %d", n, got, bound)
	}
	old, _ := retained(func() (*Runner, any) {
		s, err := lbm.NewSparse(dom, p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(s, part)
		if err != nil {
			t.Fatal(err)
		}
		return r, s
	})
	if old <= uint64(bound) {
		t.Errorf("an engine and a runner from it retain %d bytes, within the bound %d a runner alone must keep", old, bound)
	}
	t.Logf("aorta@16, %d sites: New retains %d bytes, NewSparse then NewRunner %d, bound %d", n, got, old, bound)
	runtime.KeepAlive(l)
	runtime.KeepAlive(dom)
}

// runSplits are the ways the handover tests advance a runner: one call, and
// two calls that end at an odd and then an even count.
var runSplits = [][]int{{10}, {3, 5}}

func runAll(r *Runner, calls []int) (total int) {
	for _, n := range calls {
		r.Run(n)
		total += n
	}
	return total
}

func TestNewRunnerRejectsMismatchedPartition(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	bad := &decomp.Partition{NTasks: 2, Owner: make([]int32, 3)}
	if _, err := NewRunner(s, bad); err == nil {
		t.Error("NewRunner: want error for mismatched partition")
	}
	if _, err := New(s.Lattice, bad); err == nil {
		t.Error("New: want error for mismatched partition")
	}
}

// TestNewRunnerRejectsBadOwners: an owner outside [0, NTasks), or a
// partition of no tasks, is an error from the serial pass, before any
// rank is built on a goroutine where it would take the process down.
func TestNewRunnerRejectsBadOwners(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ntasks int
		owner  int32
	}{{2, 5}, {2, 2}, {2, -1}, {0, 0}, {-1, 0}} {
		bad := &decomp.Partition{NTasks: c.ntasks, Owner: make([]int32, s.N())}
		bad.Owner[0] = c.owner
		if _, err := NewRunner(s, bad); err == nil {
			t.Errorf("NewRunner, %d tasks, site 0 owned by %d: want an error", c.ntasks, c.owner)
		}
		if _, err := New(s.Lattice, bad); err == nil {
			t.Errorf("New, %d tasks, site 0 owned by %d: want an error", c.ntasks, c.owner)
		}
	}
}

// TestNewRunnerIndependentOfGOMAXPROCS builds runners under GOMAXPROCS
// 1, 2 and 8 and steps each three times: on aorta@16 (above
// lbm.SetupFloor, the ranks are built on several goroutines) and
// cylinder@6 (below it, on one), at two ranks and at five, from the
// lattice (New) and from an engine one step off the rest state
// (NewRunner). Every cell must be bitwise what the one-goroutine build
// reaches.
func TestNewRunnerIndependentOfGOMAXPROCS(t *testing.T) {
	for _, c := range []struct {
		shape string
		scale float64
	}{{"aorta", 16}, {"cylinder", 6}} {
		dom, err := campaign.BuildGeometry(c.shape, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(1) // start from an odd step count, off the rest state
		for _, ntasks := range []int{2, 5} {
			part, err := decomp.RCB(s, ntasks, lbm.HarveyAccess())
			if err != nil {
				t.Fatal(err)
			}
			for k, build := range []func() (*Runner, error){
				func() (*Runner, error) { return New(s.Lattice, part) },
				func() (*Runner, error) { return NewRunner(s, part) },
			} {
				var want *Runner
				for _, procs := range []int{1, 2, 8} {
					prev := runtime.GOMAXPROCS(procs)
					got, err := build()
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					got.Run(3)
					if want == nil {
						want = got
						continue
					}
					for si := 0; si < s.N(); si++ {
						a, b := got.Cell(si), want.Cell(si)
						for q := range a {
							if math.Float64bits(a[q]) != math.Float64bits(b[q]) {
								t.Fatalf("%s@%g, %d ranks, build %d, GOMAXPROCS %d: cell %d slot %d = %v, want %v",
									c.shape, c.scale, ntasks, k, procs, si, q, a[q], b[q])
							}
						}
					}
				}
			}
		}
	}
}

func TestRunnerStartsFromCurrentState(t *testing.T) {
	// The runner must pick up the serial engine's evolved state, not the
	// initial condition, at an even or an odd step count.
	for _, pre := range []int{10, 9} {
		for _, calls := range runSplits {
			dom, err := geometry.Cylinder(12, 4)
			if err != nil {
				t.Fatal(err)
			}
			p := lbm.Params{Tau: 0.9, UMax: 0.02}
			serial, err := lbm.NewSparse(dom, p)
			if err != nil {
				t.Fatal(err)
			}
			serial.Run(pre) // evolve before decomposing
			part, err := decomp.RCB(serial, 4, lbm.HarveyAccess())
			if err != nil {
				t.Fatal(err)
			}
			runner, err := NewRunner(serial, part)
			if err != nil {
				t.Fatal(err)
			}
			for si := 0; si < serial.N(); si++ {
				if serial.Cell(si) != runner.Cell(si) {
					t.Fatalf("pre %d: runner did not start from the solver's cells", pre)
				}
			}
			serial.Run(runAll(runner, calls))
			for si := 0; si < serial.N(); si++ {
				if serial.Cell(si) != runner.Cell(si) {
					t.Fatalf("pre %d runs %v: runner did not start from evolved state", pre, calls)
				}
			}
		}
	}
}

func TestRunnerStats(t *testing.T) {
	dom, err := geometry.Cylinder(20, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, runners := setup(t, dom, lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}, 4)
	runner := runners[0]
	runner.Run(20)
	stats := runner.Stats()
	if len(stats) != 4 {
		t.Fatalf("stats for %d ranks, want 4", len(stats))
	}
	for _, s := range stats {
		if s.ComputeS <= 0 {
			t.Errorf("rank %d has zero compute time", s.Rank)
		}
		if s.CommS < 0 {
			t.Errorf("rank %d has negative comm time", s.Rank)
		}
		// With 4 ranks exchanging halos every step, communication happens.
		if s.CommS == 0 {
			t.Errorf("rank %d recorded no communication", s.Rank)
		}
	}
}

// TestInjectedClockDeterministicStats pins the injectable-clock
// contract from two angles. A single-rank run with a tick-per-reading
// fake clock yields an exact, reproducible compute/communication
// split: step() reads the clock six times per step, so each step books
// exactly 2ms of compute and 1ms of communication under a
// 1ms-per-reading clock. A multi-rank run with a constant clock yields
// exactly zero times on every rank — no wall-clock noise can leak in —
// and therefore byte-identical Stats across repeated runs regardless
// of goroutine scheduling.
func TestInjectedClockDeterministicStats(t *testing.T) {
	dom, err := geometry.Cylinder(20, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, runners := setup(t, dom, lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}, 1)
	runner := runners[0]
	var ticks int64 // single rank: the clock is read from one goroutine
	runner.SetClock(func() time.Time {
		ticks++
		return time.Unix(0, ticks*int64(time.Millisecond))
	})
	const steps = 10
	runner.Run(steps)
	for _, s := range runner.Stats() {
		if want := steps * 2e-3; math.Abs(s.ComputeS-want) > 1e-12 {
			t.Errorf("rank %d ComputeS = %g, want %g", s.Rank, s.ComputeS, want)
		}
		if want := steps * 1e-3; math.Abs(s.CommS-want) > 1e-12 {
			t.Errorf("rank %d CommS = %g, want %g", s.Rank, s.CommS, want)
		}
	}

	frozen := time.Unix(42, 0)
	run := func() []RankStats {
		dom, err := geometry.Cylinder(20, 6)
		if err != nil {
			t.Fatal(err)
		}
		_, runners := setup(t, dom, lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}, 4)
		r := runners[0]
		r.SetClock(func() time.Time { return frozen })
		r.Run(steps)
		return r.Stats()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d stats differ across identical frozen-clock runs:\n got %+v\nwant %+v", i, b[i], a[i])
		}
		if a[i].ComputeS != 0 || a[i].CommS != 0 {
			t.Fatalf("rank %d booked nonzero time under a frozen clock: %+v", i, a[i])
		}
	}
}

// TestSetClockNilRestoresWallClock ensures SetClock(nil) falls back to
// time.Now rather than panicking mid-run.
func TestSetClockNilRestoresWallClock(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, runners := setup(t, dom, lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}, 2)
	runner := runners[0]
	runner.SetClock(nil)
	runner.Run(2)
	for _, s := range runner.Stats() {
		if s.ComputeS < 0 || s.CommS < 0 {
			t.Fatalf("negative time with wall clock: %+v", s)
		}
	}
}

func TestParallelPulsatileMatchesSerial(t *testing.T) {
	// The pulsatile inlet depends on the global step index, which the
	// parallel runner must thread through identically across Run calls.
	dom, err := geometry.Cylinder(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, UMax: 0.03, Pulsatile: lbm.Waveform{Period: 40, Amplitude: 0.5}}
	serial, runners := setup(t, dom, p, 6)
	serial.Run(30)
	for _, runner := range runners {
		runner.Run(13) // split across calls: step-index bookkeeping must hold
		runner.Run(17)
		for si := 0; si < serial.N(); si++ {
			if serial.Cell(si) != runner.Cell(si) {
				t.Fatal("pulsatile parallel run diverges from serial")
			}
		}
	}
}

func TestParallelTRTMatchesSerial(t *testing.T) {
	// The shared lbm.CollideCell keeps the bitwise oracle intact for the
	// TRT operator too.
	dom, err := geometry.Cylinder(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, UMax: 0.02, Collision: lbm.TRT}
	serial, runners := setup(t, dom, p, 6)
	serial.Run(25)
	for _, runner := range runners {
		runner.Run(25)
		for si := 0; si < serial.N(); si++ {
			if serial.Cell(si) != runner.Cell(si) {
				t.Fatal("TRT parallel run diverges from serial")
			}
		}
	}
}

// TestRunnerHandsOverTheStepCount: a pulsatile inflow depends on where the
// cardiac cycle stands, so a runner built from an evolved solver must
// continue from the solver's step count. Serial then parallel is then
// bitwise one serial run, from an even or an odd count.
func TestRunnerHandsOverTheStepCount(t *testing.T) {
	p := lbm.Params{Tau: 0.9, UMax: 0.03, Pulsatile: lbm.Waveform{Period: 40, Amplitude: 0.5}}
	build := func() *lbm.Sparse {
		dom, err := geometry.Cylinder(16, 5)
		if err != nil {
			t.Fatal(err)
		}
		s, err := lbm.NewSparse(dom, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, pre := range []int{7, 8} {
		for _, calls := range runSplits {
			s := build()
			s.Run(pre)
			part, err := decomp.RCB(s, 4, lbm.HarveyAccess())
			if err != nil {
				t.Fatal(err)
			}
			runner, err := NewRunner(s, part)
			if err != nil {
				t.Fatal(err)
			}
			mid := pre + runAll(runner, calls)
			if runner.Steps() != mid {
				t.Errorf("runner at step %d after %d serial and %v parallel steps, want %d", runner.Steps(), pre, calls, mid)
			}
			want := build()
			want.Run(mid)
			for si := 0; si < want.N(); si++ {
				if runner.Cell(si) != want.Cell(si) {
					t.Fatalf("pre %d runs %v site %d: serial/parallel diverges from one serial run\n got %v\nwant %v",
						pre, calls, si, runner.Cell(si), want.Cell(si))
				}
			}
		}
	}
}

// TestOddPassCoversEverySlotOnce is the invariant the AA step rests on.
// Over a rank's odd pass the loc table — the local link targets, the
// solid links' own opposite slots and the remote links' halo slots —
// together with the arrival slots of the incoming edges hits each of the
// rank's n*NQ slots of f exactly once and each halo slot exactly once, so
// the pass and the exchange after it write every value of the next state,
// and none twice. After an even pass the incoming edges' ghost tables hit
// each halo slot exactly once, and every value an edge gathers from f is
// the one the even pass left for the link the halo slot belongs to.
func TestOddPassCoversEverySlotOnce(t *testing.T) {
	shapes := []struct {
		name string
		dom  func() (*geometry.Domain, error)
	}{
		{"aorta", func() (*geometry.Domain, error) { return geometry.Aorta(4) }},
		{"cerebral", func() (*geometry.Domain, error) { return geometry.Cerebral(3, 4) }},
	}
	for _, shape := range shapes {
		for _, ntasks := range []int{1, 2, 3, 5, 8} {
			dom, err := shape.dom()
			if err != nil {
				t.Fatal(err)
			}
			_, runners := setup(t, dom, lbm.Params{Tau: 0.9, UMax: 0.02}, ntasks)
			for k, runner := range runners {
				for id, rk := range runner.ranks {
					name := fmt.Sprintf("%s/%d runner %d rank %d", shape.name, ntasks, k, id)
					f, halo := rk.Slots()
					hits := make([]int, len(f))
					haloHits := make([]int, len(halo))
					var row [lbm.NQ]int32
					rows := rk.Links().Cursor()
					for i := 0; i < len(f)/lbm.NQ; i++ {
						rows.Row(i, &row)
						for q, to := range row {
							switch {
							case to >= 0:
								hits[int(to)*lbm.NQ+q]++
							case to == -1:
								hits[i*lbm.NQ+lbm.Opp[q]]++
							default:
								haloHits[-2-int(to)]++
							}
						}
					}
					ghostHits := make([]int, len(halo))
					for _, rp := range rk.recvFrom {
						if len(rp.dstFlat) != len(rp.e.bufs[0]) || len(rp.ghost) != len(rp.e.bufs[0]) {
							t.Fatalf("%s: edge from %d scatters %d and %d values of a %d-value message",
								name, rp.peer, len(rp.dstFlat), len(rp.ghost), len(rp.e.bufs[0]))
						}
						for j, dst := range rp.dstFlat {
							hits[dst]++
							k := rp.ghost[j]
							ghostHits[k]++
							// The arrival for slot q of cell y is the link (y, opp q).
							y, q := int(dst)/lbm.NQ, int(dst)%lbm.NQ
							if rk.Links().Row(y, &row); row[lbm.Opp[q]] != lbm.RemoteLink(int(k)) {
								t.Fatalf("%s: arrival at (cell %d, q %d) kept in halo slot %d, not its link's", name, y, q, k)
							}
						}
					}
					segs := 0
					for _, sp := range rk.sendTo {
						if sp.seg != segs || len(sp.srcFlat) != len(sp.e.bufs[0]) {
							t.Fatalf("%s: edge to %d sends from halo slot %d after %d slots, and %d values in a %d-value message",
								name, sp.peer, sp.seg, segs, len(sp.srcFlat), len(sp.e.bufs[0]))
						}
						for j, src := range sp.srcFlat {
							// Halo slot base+j is link (i, q), whose value the
							// even pass leaves in cell i's slot opp(q).
							k := segs + j
							i, oq := int(src)/lbm.NQ, int(src)%lbm.NQ
							if rk.Links().Row(i, &row); row[lbm.Opp[oq]] != lbm.RemoteLink(k) {
								t.Fatalf("%s: halo slot %d gathered from (cell %d, q %d), not its link's", name, k, i, oq)
							}
						}
						segs += len(sp.srcFlat)
					}
					if segs != len(halo) {
						t.Fatalf("%s: edges cover %d of %d halo slots", name, segs, len(halo))
					}
					for slot, h := range hits {
						if h != 1 {
							t.Fatalf("%s: slot (cell %d, q %d) written %d times per odd step", name, slot/lbm.NQ, slot%lbm.NQ, h)
						}
					}
					for k := range haloHits {
						if haloHits[k] != 1 || ghostHits[k] != 1 {
							t.Fatalf("%s: halo slot %d is %d links' location and %d arrivals' ghost", name, k, haloHits[k], ghostHits[k])
						}
					}
				}
			}
		}
	}
}

// BenchmarkRunnerRun times parallel timesteps on the benchmark's lattice
// (aorta@16) over one rank per CPU.
func BenchmarkRunnerRun(b *testing.B) {
	dom, err := geometry.Aorta(16)
	if err != nil {
		b.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	part, err := decomp.RCB(s, runtime.GOMAXPROCS(0), lbm.HarveyAccess())
	if err != nil {
		b.Fatal(err)
	}
	runner, err := NewRunner(s, part)
	if err != nil {
		b.Fatal(err)
	}
	runner.Run(1) // touch both arrays
	b.ResetTimer()
	runner.Run(b.N)
	perSite := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(s.N())
	b.ReportMetric(perSite, "ns/site")
	b.ReportMetric(1e3/perSite, "MFLUPS")
}

// BenchmarkNewRunner times building a runner for aorta@16 (207 k sites)
// over a one-rank-per-CPU RCB, the set-up stage par adds to a solve: from
// the lattice, each rank deriving its rows (New), and from the engine's
// rest state, each rank reading the engine's table (NewRunner).
func BenchmarkNewRunner(b *testing.B) {
	dom, err := geometry.Aorta(16)
	if err != nil {
		b.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	part, err := decomp.RCB(s, runtime.GOMAXPROCS(0), lbm.HarveyAccess())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func() (*Runner, error)
	}{
		{"New", func() (*Runner, error) { return New(s.Lattice, part) }},
		{"NewRunner", func() (*Runner, error) { return NewRunner(s, part) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
