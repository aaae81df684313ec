package decomp_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
)

var shapes = []string{"cylinder", "aorta", "cerebral", "stenosis", "bifurcation"}

func buildSolver(t testing.TB, shape string, scale float64) *lbm.Sparse {
	t.Helper()
	dom, err := campaign.BuildGeometry(shape, scale)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sweepCounts is the differential grid: every calibration count, counts
// that are not powers of two (so the sweep falls back to one tree each),
// and one task per site.
func sweepCounts(n int) []int {
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 3, 7, 27, 144, n}
	kept := counts[:0]
	for _, k := range counts {
		if k <= n {
			kept = append(kept, k)
		}
	}
	return kept
}

// checkAgainstReference holds got to the sort-based oracle: the whole
// Partition, floats bit for bit, plus the structural invariants.
func checkAgainstReference(t *testing.T, label string, s *lbm.Sparse, k int, m lbm.AccessModel, got *decomp.Partition) {
	t.Helper()
	want, err := referenceRCB(s, k, m)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: partition differs from the sort-based reference%s", label, firstDifference(got, want))
	}
	if err := got.Validate(s); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

func firstDifference(got, want *decomp.Partition) string {
	if got.NTasks != want.NTasks || len(got.Tasks) != len(want.Tasks) {
		return fmt.Sprintf(": %d tasks (%d filled), want %d", got.NTasks, len(got.Tasks), want.NTasks)
	}
	for si := range want.Owner {
		if got.Owner[si] != want.Owner[si] {
			return fmt.Sprintf(": site %d owned by %d, want %d", si, got.Owner[si], want.Owner[si])
		}
	}
	for i := range want.Tasks {
		if !reflect.DeepEqual(got.Tasks[i], want.Tasks[i]) {
			return fmt.Sprintf(": task %d is\n%+v, want\n%+v", i, got.Tasks[i], want.Tasks[i])
		}
	}
	return ""
}

func TestRCBMatchesReference(t *testing.T) {
	m := lbm.HarveyAccess()
	for _, shape := range shapes {
		for _, scale := range []float64{6, 8} {
			s := buildSolver(t, shape, scale)
			for _, k := range sweepCounts(s.N()) {
				got, err := decomp.RCB(s, k, m)
				if err != nil {
					t.Fatalf("%s@%g RCB(%d): %v", shape, scale, k, err)
				}
				checkAgainstReference(t, fmt.Sprintf("%s@%g RCB(%d)", shape, scale, k), s, k, m, got)
			}
		}
	}
}

// TestRCBMatchesReferenceInexactBytes uses an access model whose
// per-point bytes are not integers (efficiency 0.54), so a sum taken in
// any other order than the reference's would show in the low bits.
func TestRCBMatchesReferenceInexactBytes(t *testing.T) {
	m := lbm.ProxyAccess(lbm.KernelConfig{Layout: lbm.SOA, Pattern: lbm.AA})
	s := buildSolver(t, "aorta", 6)
	counts := sweepCounts(s.N())
	parts, err := decomp.RCBSweep(s, counts, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range counts {
		checkAgainstReference(t, fmt.Sprintf("aorta@6 sweep[%d]", k), s, k, m, parts[i])
	}
}

// TestMergedLevelsMatchReference sweeps the count sets the merge could get
// wrong, every level held to the reference: powers of two that are not
// neighbours in the tree (a task merged from 16 or 256 descendants at
// once), powers of two among counts with trees of their own, and both of
// those under the access model whose byte sums show their order.
func TestMergedLevelsMatchReference(t *testing.T) {
	models := map[string]lbm.AccessModel{
		"harvey":  lbm.HarveyAccess(),
		"inexact": lbm.ProxyAccess(lbm.KernelConfig{Layout: lbm.SOA, Pattern: lbm.AA}),
	}
	for _, shape := range shapes {
		s := buildSolver(t, shape, 6)
		for _, counts := range [][]int{{1, 4, 64}, {2, 512}, {512, 2}, {3, 8, 27, 64}, {4, 4, 1}} {
			for name, m := range models {
				parts, err := decomp.RCBSweep(s, counts, m)
				if err != nil {
					t.Fatalf("%s@6 RCBSweep(%v): %v", shape, counts, err)
				}
				for i, k := range counts {
					checkAgainstReference(t, fmt.Sprintf("%s@6 %s sweep%v[%d]", shape, name, counts, i), s, k, m, parts[i])
				}
			}
		}
	}
}

// samePartition reports the first difference between two partitions,
// Bytes compared by their bits, or "" when there is none.
func samePartition(got, want *decomp.Partition) string {
	if !reflect.DeepEqual(got.Owner, want.Owner) || len(got.Tasks) != len(want.Tasks) {
		return firstDifference(got, want)
	}
	for i := range want.Tasks {
		g, w := got.Tasks[i], want.Tasks[i]
		if math.Float64bits(g.Bytes) != math.Float64bits(w.Bytes) {
			return fmt.Sprintf(": task %d bytes %v, want %v", i, g.Bytes, w.Bytes)
		}
		if g.ID != w.ID || g.Points != w.Points || !reflect.DeepEqual(g.Sends, w.Sends) {
			return fmt.Sprintf(": task %d is\n%+v, want\n%+v", i, g, w)
		}
	}
	return ""
}

// TestRCBIndependentOfGOMAXPROCS decomposes aorta@16 (207 k sites, above
// lbm.SetupFloor: site coordinates, subtrees of the bisection and the
// link scan run on several goroutines) and cylinder@6 (below it: one)
// under GOMAXPROCS 1, 2 and 8. Every partition — RCB at counts that do
// and do not nest, and the calibration sweep, merged levels included —
// must equal the one-goroutine one, and aorta@16's RCBs under GOMAXPROCS
// 8 the sort-based reference.
func TestRCBIndependentOfGOMAXPROCS(t *testing.T) {
	m := lbm.HarveyAccess()
	counts := []int{2, 3, 128}
	for _, c := range []struct {
		shape string
		scale float64
	}{{"aorta", 16}, {"cylinder", 6}} {
		s := buildSolver(t, c.shape, c.scale)
		sweep := core.CalibrationCounts(s.N())
		var want []*decomp.Partition
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			var got []*decomp.Partition
			for _, k := range counts {
				p, err := decomp.RCB(s, k, m)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, p)
			}
			parts, err := decomp.RCBSweep(s, sweep, m)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, parts...)
			if procs == 8 && c.scale > 8 { // the small lattice is held to the reference elsewhere
				for i, k := range counts {
					checkAgainstReference(t, fmt.Sprintf("%s@%g RCB(%d)", c.shape, c.scale, k), s, k, m, got[i])
				}
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if d := samePartition(got[i], want[i]); d != "" {
					t.Errorf("%s@%g GOMAXPROCS %d: %d-task partition differs from GOMAXPROCS 1%s", c.shape, c.scale, procs, want[i].NTasks, d)
				}
			}
		}
	}
}

func TestRCBSweepMatchesRCB(t *testing.T) {
	m := lbm.HarveyAccess()
	check := func(label string, s *lbm.Sparse, counts []int) {
		t.Helper()
		parts, err := decomp.RCBSweep(s, counts, m)
		if err != nil {
			t.Fatalf("%s: RCBSweep(%v): %v", label, counts, err)
		}
		if len(parts) != len(counts) {
			t.Fatalf("%s: %d partitions for %d counts", label, len(parts), len(counts))
		}
		for i, k := range counts {
			one, err := decomp.RCB(s, k, m)
			if err != nil {
				t.Fatalf("%s: RCB(%d): %v", label, k, err)
			}
			if !reflect.DeepEqual(parts[i], one) {
				t.Errorf("%s: RCBSweep(%v)[%d] differs from RCB(%d)%s", label, counts, i, k, firstDifference(parts[i], one))
			}
			if err := parts[i].Validate(s); err != nil {
				t.Errorf("%s: sweep[%d]: %v", label, k, err)
			}
		}
	}
	for _, shape := range shapes {
		for _, scale := range []float64{6, 8} {
			s := buildSolver(t, shape, scale)
			label := fmt.Sprintf("%s@%g", shape, scale)
			check(label, s, core.CalibrationCounts(s.N()))
			check(label, s, sweepCounts(s.N()))
		}
	}
	// Out of order, repeated, and without the smaller powers of two.
	s := buildSolver(t, "cylinder", 6)
	check("cylinder@6", s, []int{64, 5, 64, 2, 512, 5})

	// A lattice too small for a doubling sweep: CalibrationCounts pads it
	// to [1 2 3], and 3 has a tree of its own.
	tiny, err := randomMask(1, 3, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := core.CalibrationCounts(tiny.N())
	if !reflect.DeepEqual(counts, []int{1, 2, 3}) {
		t.Fatalf("tiny lattice of %d sites sweeps %v, want [1 2 3]", tiny.N(), counts)
	}
	check("tiny", tiny, counts)
	parts, err := decomp.RCBSweep(tiny, counts, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range counts {
		checkAgainstReference(t, fmt.Sprintf("tiny sweep[%d]", k), tiny, k, m, parts[i])
	}
}

func TestRCBSweepRejectsBadCounts(t *testing.T) {
	s := buildSolver(t, "cylinder", 6)
	m := lbm.HarveyAccess()
	if _, err := decomp.RCBSweep(s, []int{1, 0, 4}, m); err == nil {
		t.Error("want error for a zero count in the sweep")
	}
	_, err := decomp.RCBSweep(s, []int{1, 2, s.N() + 1}, m)
	var tc *decomp.TaskCountError
	if !errors.As(err, &tc) || tc.NTasks != s.N()+1 || tc.Sites != s.N() {
		t.Errorf("oversized count: got %v, want a TaskCountError naming %d > %d", err, s.N()+1, s.N())
	}
	if parts, err := decomp.RCBSweep(s, nil, m); err != nil || len(parts) != 0 {
		t.Errorf("empty sweep: got %d partitions, err %v", len(parts), err)
	}
}

// TestGridStatsMatchReference holds the statistics pass to the map-based
// oracle on an owner array RCB never produces: block grids, with empty
// tasks and owners that are not contiguous in site order.
func TestGridStatsMatchReference(t *testing.T) {
	m := lbm.HarveyAccess()
	s := buildSolver(t, "bifurcation", 6)
	for _, g := range [][3]int{{1, 1, 1}, {2, 2, 2}, {4, 3, 2}, {8, 4, 4}} {
		got, err := decomp.Grid(s, g[0], g[1], g[2], m)
		if err != nil {
			t.Fatal(err)
		}
		want := &decomp.Partition{NTasks: got.NTasks, Owner: got.Owner}
		referenceStats(want, s, m)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Grid%v: statistics differ from the map-based reference%s", g, firstDifference(got, want))
		}
	}
}

// randomMask carves a seeded random blob lattice: a box with each voxel
// fluid with probability fill, so sites have ragged neighbourhoods, many
// coordinate ties and disconnected pieces.
func randomMask(seed int64, nx, ny, nz int, fill float64) (*lbm.Sparse, error) {
	rng := rand.New(rand.NewSource(seed))
	dom := &geometry.Domain{Name: "mask", NX: nx, NY: ny, NZ: nz, Types: make([]geometry.PointType, nx*ny*nz)}
	for i := range dom.Types {
		if rng.Float64() < fill {
			dom.Types[i] = geometry.Bulk
			if rng.Intn(4) == 0 {
				dom.Types[i] = geometry.Wall
			}
		}
	}
	return lbm.NewSparse(dom, lbm.Params{Tau: 0.9})
}

func FuzzRCBMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(5), uint8(4), uint8(128), uint16(7), uint16(0x7f))
	f.Add(int64(2), uint8(12), uint8(3), uint8(9), uint8(200), uint16(16), uint16(0x45)) // 1, 4, 64
	f.Add(int64(3), uint8(2), uint8(2), uint8(2), uint8(255), uint16(8), uint16(0x6))
	f.Add(int64(4), uint8(16), uint8(16), uint8(1), uint8(60), uint16(33), uint16(0x82))    // 2, 128
	f.Add(int64(5), uint8(15), uint8(15), uint8(15), uint8(250), uint16(27), uint16(0x202)) // 2, 512
	f.Fuzz(func(t *testing.T, seed int64, nx, ny, nz, fill uint8, ntasks, levels uint16) {
		dims := [3]int{1 + int(nx)%16, 1 + int(ny)%16, 1 + int(nz)%16}
		s, err := randomMask(seed, dims[0], dims[1], dims[2], (1+float64(fill))/256)
		if err != nil {
			t.Skip(err) // no fluid voxel drawn
		}
		k := 1 + int(ntasks)%s.N()
		m := lbm.HarveyAccess()
		got, err := decomp.RCB(s, k, m)
		if err != nil {
			t.Fatalf("RCB(%d) on %d sites: %v", k, s.N(), err)
		}
		checkAgainstReference(t, fmt.Sprintf("mask %v seed %d RCB(%d)", dims, seed, k), s, k, m, got)

		// The same count inside a sweep, next to the powers of two levels
		// picks: any subset, so merged levels skip any number of tree
		// depths.
		counts := []int{k}
		for d := 0; d < 10 && 1<<d <= s.N(); d++ {
			if levels>>d&1 != 0 {
				counts = append(counts, 1<<d)
			}
		}
		parts, err := decomp.RCBSweep(s, counts, m)
		if err != nil {
			t.Fatalf("RCBSweep(%v): %v", counts, err)
		}
		for i, c := range counts {
			checkAgainstReference(t, fmt.Sprintf("mask %v seed %d sweep%v[%d]", dims, seed, counts, i), s, c, m, parts[i])
		}
	})
}
