package par

import (
	"math"
	"runtime"
	"testing"
	"time"

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
	serial.Run(30)
	runner.Run(30)
	if d := math.Abs(serial.TotalMass() - runner.TotalMass()); d > 1e-9 {
		t.Errorf("mass differs by %v", d)
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

func TestWriteBack(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	serial, runner := setup(t, dom, p, 4)
	runner.Run(15)
	runner.WriteBack(serial)
	for si := 0; si < serial.N(); si++ {
		if serial.Cell(si) != runner.Cell(si) {
			t.Fatal("WriteBack did not copy state")
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

func TestRunnerStartsFromCurrentState(t *testing.T) {
	// The runner must pick up the serial engine's evolved state, not the
	// initial condition.
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := lbm.Params{Tau: 0.9, UMax: 0.02}
	serial, err := lbm.NewSparse(dom, p)
	if err != nil {
		t.Fatal(err)
	}
	serial.Run(10) // evolve before decomposing
	part, err := decomp.RCB(serial, 4, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(serial, part)
	if err != nil {
		t.Fatal(err)
	}
	serial.Run(10)
	runner.Run(10)
	for si := 0; si < serial.N(); si++ {
		if serial.Cell(si) != runner.Cell(si) {
			t.Fatal("runner did not start from evolved state")
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
// bitwise one serial run.
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
	want := build()
	want.Run(7 + 9 + 5)

	s := build()
	s.Run(7)
	part, err := decomp.RCB(s, 4, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(s, part)
	if err != nil {
		t.Fatal(err)
	}
	runner.Run(9)
	if runner.Steps() != 16 {
		t.Errorf("runner at step %d after 7 serial and 9 parallel steps, want 16", runner.Steps())
	}
	runner.WriteBack(s)
	if s.Steps() != 16 {
		t.Errorf("solver at step %d after WriteBack, want 16", s.Steps())
	}
	s.Run(5)
	for si := 0; si < want.N(); si++ {
		if s.Cell(si) != want.Cell(si) {
			t.Fatalf("site %d: serial/parallel/serial diverges from one serial run\n got %v\nwant %v", si, s.Cell(si), want.Cell(si))
		}
	}
}

// TestLinkRowsCoverEverySlotOnce is the invariant push streaming rests
// on: within a rank, the local link targets, the bounce-back targets and
// the arrival slots of the incoming edges together hit each of the rank's
// n*NQ slots of fnew exactly once, and the remote links hit each slot of
// the send space exactly once — so a step writes every value of the next
// state, and none twice.
func TestLinkRowsCoverEverySlotOnce(t *testing.T) {
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
				hits := make([]int, len(rk.fnew))
				sendHits := make([]int, len(rk.send))
				for slot, to := range rk.links {
					i, q := slot/lbm.NQ, slot%lbm.NQ
					switch {
					case to >= 0:
						hits[int(to)*lbm.NQ+q]++
					case to == -1:
						hits[i*lbm.NQ+lbm.Opp[q]]++
					default:
						sendHits[-2-int(to)]++
					}
				}
				for _, rp := range rk.recvFrom {
					if len(rp.dstFlat) != len(rp.e.bufs[0]) {
						t.Fatalf("%s/%d rank %d: edge from %d scatters %d values of a %d-value message",
							shape.name, ntasks, rk.id, rp.peer, len(rp.dstFlat), len(rp.e.bufs[0]))
					}
					for _, dst := range rp.dstFlat {
						hits[dst]++
					}
				}
				segs := 0
				for _, sp := range rk.sendTo {
					if len(sp.seg) != len(sp.e.bufs[0]) {
						t.Fatalf("%s/%d rank %d: edge to %d copies %d values into a %d-value message",
							shape.name, ntasks, rk.id, sp.peer, len(sp.seg), len(sp.e.bufs[0]))
					}
					segs += len(sp.seg)
				}
				if segs != len(rk.send) {
					t.Fatalf("%s/%d rank %d: edges cover %d of %d send slots", shape.name, ntasks, rk.id, segs, len(rk.send))
				}
				for slot, h := range hits {
					if h != 1 {
						t.Fatalf("%s/%d rank %d: slot (cell %d, q %d) written %d times per step",
							shape.name, ntasks, rk.id, slot/lbm.NQ, slot%lbm.NQ, h)
					}
				}
				for k, h := range sendHits {
					if h != 1 {
						t.Fatalf("%s/%d rank %d: send slot %d written %d times per step", shape.name, ntasks, rk.id, k, h)
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
