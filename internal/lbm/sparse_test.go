package lbm

import (
	"math"
	"testing"

	"repro/internal/fit"
	"repro/internal/geometry"
)

// poiseuilleCase builds a small periodic force-driven cylinder: the
// canonical validation flow with the analytic steady profile
// u(r) = G (R^2 - r^2) / (4 nu).
func poiseuilleCase(t *testing.T, nx int, radius float64, g float64) *Sparse {
	t.Helper()
	dom, err := geometry.Cylinder(nx, radius)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparse(dom, Params{Tau: 0.9, PeriodicX: true, Force: [3]float64{g, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSparseMassConservationPeriodic(t *testing.T) {
	s := poiseuilleCase(t, 12, 5, 1e-5)
	m0 := s.TotalMass()
	s.Run(200)
	m1 := s.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-10 {
		t.Errorf("mass drifted by %v in periodic bounce-back run", rel)
	}
}

func TestSparsePoiseuilleProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("long steady-state convergence")
	}
	// The analytic steady profile is u(r) = g (R_eff^2 - r^2) / (4 nu).
	// The staircase wall makes the effective radius R_eff geometry-
	// dependent, but the parabola's curvature g/(4 nu) is not: fitting
	// u against r^2 must recover the solver's viscosity.
	const g = 2e-6
	s := poiseuilleCase(t, 8, 9, g)
	nu := s.Params().Viscosity()

	// Run to steady state: monitor the peak velocity until it stalls.
	prev := -1.0
	for i := 0; i < 300; i++ {
		s.Run(100)
		var umax float64
		for si := 0; si < s.N(); si++ {
			_, ux, _, _ := s.Macro(si)
			umax = math.Max(umax, ux)
		}
		if math.Abs(umax-prev) < 1e-11 {
			break
		}
		prev = umax
	}

	// Collect (r^2, u) over the interior of the mid-length cross-section,
	// away from the staircase wall.
	cy := float64(s.NY-1) / 2
	cz := float64(s.NZ-1) / 2
	midX := s.NX / 2
	var r2s, us []float64
	for si := 0; si < s.N(); si++ {
		x, y, z := s.SiteCoords(si)
		if x != midX {
			continue
		}
		dy, dz := float64(y)-cy, float64(z)-cz
		r2 := dy*dy + dz*dz
		if r2 > 6.5*6.5 {
			continue
		}
		_, ux, _, _ := s.Macro(si)
		r2s = append(r2s, r2)
		us = append(us, ux)
	}
	if len(r2s) < 20 {
		t.Fatalf("only %d profile sites sampled", len(r2s))
	}
	line, err := fit.LinearLSQ(r2s, us)
	if err != nil {
		t.Fatal(err)
	}
	if line.R2 < 0.99 {
		t.Errorf("profile not parabolic: R² = %.4f", line.R2)
	}
	nuFit := -g / (4 * line.Slope)
	if rel := math.Abs(nuFit-nu) / nu; rel > 0.05 {
		t.Errorf("fitted viscosity %.4f deviates from %.4f by %.1f%%", nuFit, nu, rel*100)
	}
	// Implied effective radius must be near the nominal one.
	rEff := math.Sqrt(line.Intercept / -line.Slope)
	if rEff < 8 || rEff > 10 {
		t.Errorf("effective radius %.2f outside [8, 10]", rEff)
	}
}

func TestSparseInletOutletFlow(t *testing.T) {
	dom, err := geometry.Cylinder(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparse(dom, Params{Tau: 0.9, UMax: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(600)
	if v := s.MaxSpeed(); v > 0.2 {
		t.Fatalf("flow unstable, max speed %v", v)
	}
	// Flow must move in +x through the middle of the pipe.
	var meanUx float64
	var n int
	for si := 0; si < s.N(); si++ {
		x, _, _ := s.SiteCoords(si)
		if x == dom.NX/2 {
			_, ux, _, _ := s.Macro(si)
			meanUx += ux
			n++
		}
	}
	meanUx /= float64(n)
	if meanUx <= 1e-4 {
		t.Errorf("mid-pipe mean axial velocity %v; inlet-driven flow not established", meanUx)
	}
}

func TestSparseRunStability(t *testing.T) {
	dom, err := geometry.Aorta(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparse(dom, Params{Tau: 0.95, UMax: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(150)
	for si := 0; si < s.N(); si++ {
		rho, _, _, _ := s.Macro(si)
		if math.IsNaN(rho) || rho <= 0 || rho > 2 {
			t.Fatalf("unphysical density %v at site %d", rho, si)
		}
	}
	if v := s.MaxSpeed(); v > 0.3 {
		t.Errorf("aorta flow unstable, max speed %v", v)
	}
}

func TestSparseRejectsBadParams(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSparse(dom, Params{Tau: 0.3}); err == nil {
		t.Error("want error for unstable tau")
	}
}

func TestSparseRejectsNoInletWithUMax(t *testing.T) {
	// A domain with no inlet sites and UMax > 0 is a configuration error.
	dom := &geometry.Domain{Name: "slab", NX: 6, NY: 6, NZ: 6,
		Types: make([]geometry.PointType, 216)}
	for i := range dom.Types {
		dom.Types[i] = geometry.Bulk
	}
	if _, err := NewSparse(dom, Params{Tau: 0.9, UMax: 0.05}); err == nil {
		t.Error("want error for UMax without inlet")
	}
}

func TestSparseNoFluid(t *testing.T) {
	dom := &geometry.Domain{Name: "void", NX: 4, NY: 4, NZ: 4,
		Types: make([]geometry.PointType, 64)}
	if _, err := NewSparse(dom, Params{Tau: 0.9}); err == nil {
		t.Error("want error for all-solid domain")
	}
}

func TestSparseNeighborTableSymmetry(t *testing.T) {
	// If site a sees site b along q, then b must see a along Opp[q].
	s := poiseuilleCase(t, 10, 4, 0)
	var row, back [NQ]int32
	for si := 0; si < s.N(); si++ {
		s.Links().Row(si, &row)
		for q := 0; q < NQ; q++ {
			nb := int(row[q])
			if nb < 0 {
				continue
			}
			if s.Links().Row(nb, &back); int(back[Opp[q]]) != si {
				t.Fatalf("neighbor asymmetry: %d --%d--> %d --%d--> %d", si, q, nb, Opp[q], back[Opp[q]])
			}
		}
	}
}

func TestSparseVectorsRange(t *testing.T) {
	s := poiseuilleCase(t, 10, 4, 0)
	bulkSeen := false
	for si := 0; si < s.N(); si++ {
		v := s.Vectors(si)
		if v < 1 || v > NQ {
			t.Fatalf("Vectors(%d) = %d outside [1,19]", si, v)
		}
		if v == NQ {
			bulkSeen = true
		}
	}
	if !bulkSeen {
		t.Error("no site with full 19 vectors; cylinder interior missing")
	}
}

func TestSparseWallPointsCheaper(t *testing.T) {
	// The Eq. 9 accounting must price wall points below bulk points.
	s := poiseuilleCase(t, 12, 6, 0)
	m := HarveyAccess()
	var bulkB, wallB float64
	var bulkN, wallN int
	for si := 0; si < s.N(); si++ {
		b := m.PointBytes(s.Vectors(si))
		switch s.Type(si) {
		case geometry.Bulk:
			bulkB += b
			bulkN++
		case geometry.Wall:
			wallB += b
			wallN++
		}
	}
	if bulkN == 0 || wallN == 0 {
		t.Fatal("missing point classes")
	}
	if wallB/float64(wallN) >= bulkB/float64(bulkN) {
		t.Errorf("wall points not cheaper: %.1f vs %.1f bytes",
			wallB/float64(wallN), bulkB/float64(bulkN))
	}
}

func TestBytesSerialPositive(t *testing.T) {
	s := poiseuilleCase(t, 10, 4, 0)
	if b := s.BytesSerial(HarveyAccess()); b <= 0 {
		t.Errorf("BytesSerial = %v, want positive", b)
	}
}

func TestAccessModels(t *testing.T) {
	h := HarveyAccess()
	// Bulk point: 19 vectors, read+write+index.
	want := 19*(1+1)*8.0 + 19*1*4.0
	if got := h.PointBytes(19); got != want {
		t.Errorf("Harvey bulk PointBytes = %v, want %v", got, want)
	}
	ab := ProxyAccess(KernelConfig{Layout: SOA, Pattern: AB})
	aa := ProxyAccess(KernelConfig{Layout: SOA, Pattern: AA})
	if ab.PointBytes(19) <= aa.PointBytes(19) {
		t.Errorf("AB must touch more bytes than AA: %v vs %v", ab.PointBytes(19), aa.PointBytes(19))
	}
}
