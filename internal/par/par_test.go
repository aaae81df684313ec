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

func setup(t *testing.T, dom *geometry.Domain, p lbm.Params, ntasks int) (*lbm.Sparse, *Runner) {
	t.Helper()
	serial, err := lbm.NewSparse(dom, p)
	if err != nil {
		t.Fatal(err)
	}
	part, err := decomp.RCB(serial, ntasks, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(serial, part)
	if err != nil {
		t.Fatal(err)
	}
	return serial, runner
}

// TestParallelMatchesSerialBitwise is the central oracle: the decomposed
// run must reproduce the serial trajectory exactly, for several rank
// counts, on both periodic force-driven and inlet/outlet flows.
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
				serial, runner := setup(t, dom, tc.p, ntasks)
				const steps = 25
				serial.Run(steps)
				runner.Run(steps)
				for si := 0; si < serial.N(); si++ {
					want := serial.Cell(si)
					got := runner.Cell(si)
					if want != got {
						t.Fatalf("ntasks=%d site %d: parallel diverges from serial\n got %v\nwant %v",
							ntasks, si, got, want)
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
	serial, runner := setup(t, dom, lbm.Params{Tau: 0.9, UMax: 0.02}, 1)
	serial.Run(10)
	runner.Run(10)
	for si := 0; si < serial.N(); si++ {
		if serial.Cell(si) != runner.Cell(si) {
			t.Fatal("single-task runner diverges from serial")
		}
	}
}

func TestRunnerMassMatchesSerial(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}
	serial, runner := setup(t, dom, p, 8)
	for _, steps := range []int{30, 1} { // an even, then an odd count
		serial.Run(steps)
		runner.Run(steps)
		// Summed in the serial engine's order, the mass is the serial one.
		if got, want := runner.TotalMass(), serial.TotalMass(); got != want {
			t.Errorf("after %d steps: runner mass %v, serial %v", serial.Steps(), got, want)
		}
	}
}

func TestRunnerIncrementalRuns(t *testing.T) {
	// Run(a) then Run(b) must equal Run(a+b).
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	_, r1 := setup(t, dom, p, 4)
	r1.Run(9)
	r1.Run(11)

	dom2, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, r2 := setup(t, dom2, p, 4)
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
	_, r := setup(t, dom, lbm.Params{Tau: 0.9, UMax: 0.02}, 2)
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
	_, r := setup(t, dom, lbm.Params{Tau: 0.9, UMax: 0.02}, 2)
	got := 0
	for _, rk := range r.ranks {
		got += rk.links.Bytes()
	}
	if n := len(r.ownerOf); got > 20*n {
		t.Errorf("2 ranks on aorta@16 hold %d bytes of link tables for %d fluid sites (%.1f a site), bound %d",
			got, n, float64(got)/float64(n), 20*n)
	}
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

// TestWriteBack hands a parallel state back to a solver that made an even
// or an odd number of steps before the runner was built, and one more
// since, so the two stand at either parity: the solver must then read the
// runner's cells and step on as the runner does.
func TestWriteBack(t *testing.T) {
	for _, pre := range []int{0, 3} {
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
			serial.Run(pre)
			part, err := decomp.RCB(serial, 4, lbm.HarveyAccess())
			if err != nil {
				t.Fatal(err)
			}
			runner, err := NewRunner(serial, part)
			if err != nil {
				t.Fatal(err)
			}
			serial.Step()
			runAll(runner, calls)
			runner.WriteBack(serial)
			if serial.Steps() != runner.Steps() {
				t.Fatalf("pre %d runs %v: solver at step %d after WriteBack, runner at %d", pre, calls, serial.Steps(), runner.Steps())
			}
			for si := 0; si < serial.N(); si++ {
				if serial.Cell(si) != runner.Cell(si) {
					t.Fatalf("pre %d runs %v: WriteBack did not copy state", pre, calls)
				}
			}
			serial.Run(3)
			runner.Run(3)
			for si := 0; si < serial.N(); si++ {
				if serial.Cell(si) != runner.Cell(si) {
					t.Fatalf("pre %d runs %v: solver diverges from the runner after WriteBack", pre, calls)
				}
			}
		}
	}
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
		t.Error("want error for mismatched partition")
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
			t.Errorf("%d tasks, site 0 owned by %d: want an error", c.ntasks, c.owner)
		}
	}
}

// TestNewRunnerIndependentOfGOMAXPROCS builds runners under GOMAXPROCS
// 1, 2 and 8 and steps each three times: on aorta@16 (above
// lbm.SetupFloor, the ranks are built on several goroutines) and
// cylinder@6 (below it, on one), at two ranks and at five. Every cell
// must be bitwise what the one-goroutine build reaches.
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
			var want *Runner
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got, err := NewRunner(s, part)
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
							t.Fatalf("%s@%g, %d ranks, GOMAXPROCS %d: cell %d slot %d = %v, want %v",
								c.shape, c.scale, ntasks, procs, si, q, a[q], b[q])
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
	_, runner := setup(t, dom, lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}, 4)
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
	_, runner := setup(t, dom, lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}, 1)
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
		_, r := setup(t, dom, lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}, 4)
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
	_, runner := setup(t, dom, lbm.Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{1e-5, 0, 0}}, 2)
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
	serial, runner := setup(t, dom, p, 6)
	serial.Run(30)
	runner.Run(13) // split across calls: step-index bookkeeping must hold
	runner.Run(17)
	for si := 0; si < serial.N(); si++ {
		if serial.Cell(si) != runner.Cell(si) {
			t.Fatal("pulsatile parallel run diverges from serial")
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
	serial, runner := setup(t, dom, p, 6)
	serial.Run(25)
	runner.Run(25)
	for si := 0; si < serial.N(); si++ {
		if serial.Cell(si) != runner.Cell(si) {
			t.Fatal("TRT parallel run diverges from serial")
		}
	}
}

// TestRunnerHandsOverTheStepCount: a pulsatile inflow depends on where the
// cardiac cycle stands, so a runner built from an evolved solver must
// continue from the solver's step count, and WriteBack must hand the
// count back with the cells. Serial, parallel and serial again is then
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
			runner.WriteBack(s)
			if s.Steps() != mid {
				t.Errorf("solver at step %d after WriteBack, want %d", s.Steps(), mid)
			}
			s.Run(5)
			want := build()
			want.Run(mid + 5)
			for si := 0; si < want.N(); si++ {
				if s.Cell(si) != want.Cell(si) {
					t.Fatalf("pre %d runs %v site %d: serial/parallel/serial diverges from one serial run\n got %v\nwant %v",
						pre, calls, si, s.Cell(si), want.Cell(si))
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
			_, runner := setup(t, dom, lbm.Params{Tau: 0.9, UMax: 0.02}, ntasks)
			for _, rk := range runner.ranks {
				name := fmt.Sprintf("%s/%d rank %d", shape.name, ntasks, rk.id)
				hits := make([]int, len(rk.f))
				haloHits := make([]int, len(rk.halo))
				var row [lbm.NQ]int32
				rows := rk.links.Cursor()
				for i := 0; i < len(rk.f)/lbm.NQ; i++ {
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
				ghostHits := make([]int, len(rk.halo))
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
						if rk.links.Row(y, &row); row[lbm.Opp[q]] != lbm.RemoteLink(int(k)) {
							t.Fatalf("%s: arrival at (cell %d, q %d) kept in halo slot %d, not its link's", name, y, q, k)
						}
					}
				}
				segs := 0
				for _, sp := range rk.sendTo {
					if len(sp.seg) != len(sp.e.bufs[0]) || len(sp.srcFlat) != len(sp.e.bufs[0]) {
						t.Fatalf("%s: edge to %d sends %d and %d values in a %d-value message",
							name, sp.peer, len(sp.seg), len(sp.srcFlat), len(sp.e.bufs[0]))
					}
					for j, src := range sp.srcFlat {
						// Halo slot base+j is link (i, q), whose value the
						// even pass leaves in cell i's slot opp(q).
						k := segs + j
						i, oq := int(src)/lbm.NQ, int(src)%lbm.NQ
						if rk.links.Row(i, &row); row[lbm.Opp[oq]] != lbm.RemoteLink(k) {
							t.Fatalf("%s: halo slot %d gathered from (cell %d, q %d), not its link's", name, k, i, oq)
						}
					}
					segs += len(sp.seg)
				}
				if segs != len(rk.halo) {
					t.Fatalf("%s: edges cover %d of %d halo slots", name, segs, len(rk.halo))
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
// over a one-rank-per-CPU RCB, from the engine's rest state: the set-up
// stage par adds to a solve.
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(s, part); err != nil {
			b.Fatal(err)
		}
	}
}
