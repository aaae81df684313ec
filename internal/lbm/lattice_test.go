package lbm_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/geometry"
	"repro/internal/lbm"
)

// latticeShapes builds the five campaign.BuildGeometry shapes at scale 6.
func latticeShapes(t testing.TB) []*geometry.Domain {
	t.Helper()
	var doms []*geometry.Domain
	for _, shape := range []string{"cylinder", "aorta", "cerebral", "stenosis", "bifurcation"} {
		dom, err := campaign.BuildGeometry(shape, 6)
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, dom)
	}
	return doms
}

// TestSiteAtMatchesDomainScan: the compact index answers every box
// coordinate, and a shell of coordinates outside the box, exactly as a
// scan of Domain.Types in global order numbers the fluid sites.
func TestSiteAtMatchesDomainScan(t *testing.T) {
	for _, dom := range latticeShapes(t) {
		l, err := lbm.NewLattice(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
		if err != nil {
			t.Fatalf("%s: %v", dom.Name, err)
		}
		next := 0
		for z := -1; z <= dom.NZ; z++ {
			for y := -1; y <= dom.NY; y++ {
				for x := -1; x <= dom.NX; x++ {
					want := -1
					if dom.At(x, y, z).IsFluid() { // At is Solid outside the box
						want = next
						next++
					}
					if got := l.SiteAt(x, y, z); got != want {
						t.Fatalf("%s: SiteAt(%d,%d,%d) = %d, want %d", dom.Name, x, y, z, got, want)
					}
					if want >= 0 {
						if gx, gy, gz := l.SiteCoords(want); gx != x || gy != y || gz != z {
							t.Fatalf("%s: SiteCoords(%d) = (%d,%d,%d), want (%d,%d,%d)", dom.Name, want, gx, gy, gz, x, y, z)
						}
						if l.Type(want) != dom.At(x, y, z) {
							t.Fatalf("%s: Type(%d) = %v, want %v", dom.Name, want, l.Type(want), dom.At(x, y, z))
						}
					}
				}
			}
		}
		if next != l.N() {
			t.Errorf("%s: lattice has %d sites, the domain %d fluid voxels", dom.Name, l.N(), next)
		}
	}
}

// TestLinksMatchDomainScan: every link row — derived on demand by
// LinkRow and stored in Sparse's table — is what the domain says about
// the 18 neighbours, with and without the periodic wrap, and Vectors is
// the count of its fluid links plus the rest vector.
func TestLinksMatchDomainScan(t *testing.T) {
	for _, dom := range latticeShapes(t) {
		for _, periodic := range []bool{false, true} {
			s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, PeriodicX: periodic})
			if err != nil {
				t.Fatalf("%s: %v", dom.Name, err)
			}
			l := s.Lattice
			var row, stored [lbm.NQ]int32
			for si := 0; si < l.N(); si++ {
				x, y, z := l.SiteCoords(si)
				l.LinkRow(&row, si, x, y, z)
				s.Links().Row(si, &stored)
				vectors := 1
				for q := 0; q < lbm.NQ; q++ {
					nx := x + lbm.Cx[q]
					if periodic {
						nx = (nx + dom.NX) % dom.NX
					}
					want := -1
					if dom.At(nx, y+lbm.Cy[q], z+lbm.Cz[q]).IsFluid() {
						want = l.SiteAt(nx, y+lbm.Cy[q], z+lbm.Cz[q])
					}
					if got := int(row[q]); got != want {
						t.Fatalf("%s periodic=%v: LinkRow(%d)[%d] = %d, want %d", dom.Name, periodic, si, q, got, want)
					}
					if got := int(stored[q]); got != want {
						t.Fatalf("%s periodic=%v: Links.Row(%d)[%d] = %d, want %d", dom.Name, periodic, si, q, got, want)
					}
					if q > 0 && want >= 0 {
						vectors++
					}
				}
				if l.Vectors(si) != vectors {
					t.Fatalf("%s: Vectors(%d) = %d, want %d", dom.Name, si, l.Vectors(si), vectors)
				}
			}
		}
	}
}

// setupProcs are the GOMAXPROCS settings set-up must not depend on: one
// goroutine, this host's two, and more than a lattice of aorta@16's size
// is split into.
var setupProcs = []int{1, 2, 8}

// TestNewSparseIndependentOfGOMAXPROCS builds each solver under every
// setupProcs: aorta@16 (207 k sites) is above lbm.SetupFloor and its
// link table, vector counts and rest state are filled over site ranges
// on several goroutines; cylinder@6 is below it and built on one. Every
// build must hold exactly the rows LinkRow derives site by site, the
// same table — runs and rows — as the one-goroutine build, the same
// vector counts and bitwise the same cells.
func TestNewSparseIndependentOfGOMAXPROCS(t *testing.T) {
	for _, c := range []struct {
		shape    string
		scale    float64
		periodic bool
	}{{"aorta", 16, false}, {"aorta", 16, true}, {"cylinder", 6, false}} {
		dom, err := campaign.BuildGeometry(c.shape, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		p := lbm.Params{Tau: 0.9, UMax: 0.02, PeriodicX: c.periodic}
		if c.periodic {
			p.UMax = 0
		}
		label := fmt.Sprintf("%s@%g periodic=%v", c.shape, c.scale, c.periodic)
		var want *lbm.Sparse
		for _, procs := range setupProcs {
			prev := runtime.GOMAXPROCS(procs)
			got, err := lbm.NewSparse(dom, p)
			split := lbm.SetupWorkers(got.N()) > 1
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if above := got.N() >= 2*lbm.SetupFloor; split != (above && procs > 1) {
				t.Fatalf("%s: %d sites at GOMAXPROCS %d split=%v", label, got.N(), procs, split)
			}
			if want == nil {
				want = got
			}
			if !lbm.SameLinks(got.Links(), want.Links()) {
				t.Fatalf("%s GOMAXPROCS %d: the link table differs from the one-goroutine build's", label, procs)
			}
			var row, stored [lbm.NQ]int32
			for si := 0; si < got.N(); si++ {
				x, y, z := got.SiteCoords(si)
				got.LinkRow(&row, si, x, y, z)
				got.Links().Row(si, &stored)
				if stored != row {
					t.Fatalf("%s GOMAXPROCS %d: Links.Row(%d) = %v, LinkRow says %v", label, procs, si, stored, row)
				}
				if got.Vectors(si) != want.Vectors(si) {
					t.Fatalf("%s GOMAXPROCS %d: Vectors(%d) = %d, want %d", label, procs, si, got.Vectors(si), want.Vectors(si))
				}
				a, b := got.Cell(si), want.Cell(si)
				for q := range a {
					if math.Float64bits(a[q]) != math.Float64bits(b[q]) {
						t.Fatalf("%s GOMAXPROCS %d: cell %d slot %d = %v, want %v", label, procs, si, q, a[q], b[q])
					}
				}
			}
		}
	}
}

// TestSparseLinksBytes is the byte bound of a solver's link table on the
// benchmark's lattice, aorta@16: at most 20 bytes a fluid site, counted
// from the table's capacities, where one NQ-int32 row a site is 76. Bulk
// runs keep one offset vector for tens of sites.
func TestSparseLinksBytes(t *testing.T) {
	dom, err := campaign.BuildGeometry("aorta", 16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if got, bound := s.Links().Bytes(), 20*s.N(); got > bound {
		t.Errorf("aorta@16's link table holds %d bytes for %d fluid sites (%.1f a site), bound %d",
			got, s.N(), float64(got)/float64(s.N()), bound)
	}
}

// TestLatticeAllocatesByFluidSites is the byte bound of a lattice, in a
// sparse box and a dense one. cerebral@6 is a 3.5 M-voxel box around
// 7.5 k fluid sites, and its lattice — site tables and the index —
// allocates under 3 MB where the dense int32 lookup alone took 14 MB.
// aorta@8 fills much more of its box, and its lattice allocates less
// than one link table of NQ int32 a site: it stores no rows.
func TestLatticeAllocatesByFluidSites(t *testing.T) {
	for _, c := range []struct {
		shape string
		scale float64
		bound func(dom *geometry.Domain, l *lbm.Lattice) uint64
	}{
		{"cerebral", 6, func(dom *geometry.Domain, _ *lbm.Lattice) uint64 {
			if dom.Sites() < 3e6 {
				t.Fatalf("cerebral@6 has a %d-voxel box; the bound below is stated for ≥ 3 M", dom.Sites())
			}
			return 3 << 20
		}},
		{"aorta", 8, func(_ *geometry.Domain, l *lbm.Lattice) uint64 {
			return uint64(l.N() * lbm.NQ * 4)
		}},
	} {
		dom, err := campaign.BuildGeometry(c.shape, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l, err := lbm.NewLattice(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bound := c.bound(dom, l)
		if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
			t.Errorf("NewLattice allocated %d bytes for %s@%g's %d fluid sites in a %d-voxel box, bound %d",
				got, c.shape, c.scale, l.N(), dom.Sites(), bound)
		}
	}
}

func TestNewLatticeRejects(t *testing.T) {
	dom, err := geometry.Cylinder(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lbm.NewLattice(dom, lbm.Params{Tau: 0.4}); err == nil {
		t.Error("want an error for tau below 0.5")
	}
	short := *dom
	short.Types = dom.Types[:len(dom.Types)-1]
	if _, err := lbm.NewLattice(&short, lbm.Params{Tau: 0.9}); err == nil {
		t.Error("want an error for a voxel array shorter than the box")
	}
	solid := *dom
	solid.Types = make([]geometry.PointType, len(dom.Types))
	if _, err := lbm.NewLattice(&solid, lbm.Params{Tau: 0.9}); err == nil {
		t.Error("want an error for a domain without fluid")
	}
	closed := *dom
	closed.Types = append([]geometry.PointType(nil), dom.Types...)
	for i, typ := range closed.Types {
		if typ == geometry.Inlet {
			closed.Types[i] = geometry.Bulk
		}
	}
	if _, err := lbm.NewLattice(&closed, lbm.Params{Tau: 0.9, UMax: 0.02}); err == nil {
		t.Error("want an error for a driven flow without inlet sites")
	}
	if _, err := lbm.NewLattice(&closed, lbm.Params{Tau: 0.9, UMax: 0.02, PeriodicX: true}); err != nil {
		t.Errorf("a periodic run needs no inlet: %v", err)
	}
}

// BenchmarkNewSparse times lattice construction plus solver state; the
// cerebral row is the sparse extreme (22 k fluid sites in 8.4 M voxels).
func BenchmarkNewSparse(b *testing.B) {
	for _, c := range []struct {
		shape string
		scale float64
	}{{"cylinder", 8}, {"aorta", 8}, {"cerebral", 8}, {"aorta", 16}} {
		name := fmt.Sprintf("%s@%g", c.shape, c.scale)
		dom, err := campaign.BuildGeometry(c.shape, c.scale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/lattice", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lbm.NewLattice(dom, lbm.Params{Tau: 0.9, UMax: 0.02}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
