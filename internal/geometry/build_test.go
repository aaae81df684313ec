package geometry

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// campaignShapes are the five geometries campaign.BuildGeometry knows,
// by its scale: the exported constructor, and the same arguments to Build
// handed to the reference. (campaign imports this package, so its switch
// is repeated here.)
var campaignShapes = []struct {
	name      string
	build     func(scale float64) (*Domain, error)
	reference func(scale float64) (*Domain, error)
}{
	{"cylinder",
		func(s float64) (*Domain, error) { return Cylinder(int(8*s), s) },
		func(s float64) (*Domain, error) { return referenceBuild(cylinderTree(int(8*s), s)) }},
	{"aorta",
		func(s float64) (*Domain, error) { return Aorta(s) },
		func(s float64) (*Domain, error) { return referenceBuild(aortaTree(s)) }},
	{"cerebral",
		func(s float64) (*Domain, error) { return Cerebral(s/2, 4) },
		func(s float64) (*Domain, error) { return referenceBuild(cerebralTree(s/2, 4)) }},
	{"stenosis",
		func(s float64) (*Domain, error) { return StenosedCylinder(int(8*s), s, 0.5, s*0.75) },
		func(s float64) (*Domain, error) { return referenceBuild(stenosisTree(int(8*s), s, 0.5, s*0.75)) }},
	{"bifurcation",
		func(s float64) (*Domain, error) { return Bifurcation(s) },
		func(s float64) (*Domain, error) { return referenceBuild(bifurcationTree(s)) }},
}

// sameDomain fails the test unless got and want agree: both errors with
// one message, or both domains with equal dimensions and Types.
func sameDomain(t *testing.T, got, want *Domain, gotErr, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("Build: %v; reference: %v", gotErr, wantErr)
		}
		return
	}
	if got.NX != want.NX || got.NY != want.NY || got.NZ != want.NZ {
		t.Fatalf("Build made %dx%dx%d, reference %dx%dx%d", got.NX, got.NY, got.NZ, want.NX, want.NY, want.NZ)
	}
	for i := range want.Types {
		if got.Types[i] != want.Types[i] {
			x, y, z := i%want.NX, i/want.NX%want.NY, i/want.NX/want.NY
			t.Fatalf("site (%d,%d,%d): Build says %v, reference %v", x, y, z, got.Types[i], want.Types[i])
		}
	}
}

// TestBuildMatchesReference: on the campaign's five shapes at every scale
// it is run at, the row-bounded Build and the whole-box reference produce
// the same Types byte for byte, or fail with the same error (cerebral@5's
// outlet plane is past its vessels). A scale the constructor refuses
// never reaches either.
func TestBuildMatchesReference(t *testing.T) {
	for _, shape := range campaignShapes {
		built := 0
		for scale := 3.0; scale <= 16; scale += 0.5 {
			if testing.Short() && scale > 8 {
				break
			}
			got, err := shape.build(scale)
			if err != nil && strings.Contains(err.Error(), "too small") {
				continue
			}
			if err == nil {
				built++
			}
			want, wantErr := shape.reference(scale)
			sameDomain(t, got, want, err, wantErr)
		}
		if built == 0 {
			t.Errorf("%s: no scale was built", shape.name)
		}
	}
}

// TestBuildRejects: what the row bounds cannot reason about is refused by
// capsule index, and a bad port is refused before a voxel is written.
func TestBuildRejects(t *testing.T) {
	ok := Capsule{A: Vec3{0, 4, 4}, B: Vec3{9, 4, 4}, R: 3}
	inlet := Port{XPlane: 0, Center: Vec3{0, 4, 4}, Radius: 3, Type: Inlet}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		caps  []Capsule
		ports []Port
		want  string
	}{
		{"NaN coordinate", []Capsule{ok, {A: Vec3{0, nan, 4}, B: ok.B, R: 3}}, nil, "capsule 1"},
		{"infinite coordinate", []Capsule{{A: ok.A, B: Vec3{inf, 4, 4}, R: 3}}, nil, "capsule 0"},
		{"negative infinity", []Capsule{ok, ok, {A: Vec3{0, 4, -inf}, B: ok.B, R: 3}}, nil, "capsule 2"},
		{"NaN radius", []Capsule{{A: ok.A, B: ok.B, R: nan}}, nil, "capsule 0"},
		{"infinite radius", []Capsule{{A: ok.A, B: ok.B, R: inf}}, nil, "capsule 0"},
		{"zero radius", []Capsule{ok, {A: ok.A, B: ok.B}}, nil, "capsule 1"},
		{"negative radius", []Capsule{{A: ok.A, B: ok.B, R: -2}}, nil, "capsule 0"},
		{"port type", []Capsule{ok}, []Port{inlet, {XPlane: 9, Center: inlet.Center, Radius: 3, Type: Wall}}, "port type wall is not Inlet or Outlet"},
		{"port plane", []Capsule{ok}, []Port{inlet, {XPlane: 10, Center: inlet.Center, Radius: 3, Type: Outlet}}, "port plane x=10 outside domain [0,10)"},
		{"port plane below", []Capsule{ok}, []Port{{XPlane: -1, Center: inlet.Center, Radius: 3, Type: Outlet}}, "port plane x=-1 outside domain [0,10)"},
		{"port marks nothing", []Capsule{ok}, []Port{{XPlane: 0, Center: Vec3{0, 100, 100}, Radius: 0.5, Type: Inlet}}, "port at x=0 marked no sites"},
	} {
		d, err := Build("x", 10, 10, 10, tc.caps, tc.ports)
		if err == nil || d != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: domain %v, error %v; want an error containing %q", tc.name, d != nil, err, tc.want)
		}
	}
	// A huge finite capsule is a number like any other.
	if _, err := Build("x", 10, 10, 10, []Capsule{{A: Vec3{-1e300, 4, 4}, B: Vec3{1e300, 4, 4}, R: 3}}, nil); err != nil {
		t.Errorf("huge finite capsule: %v", err)
	}
}

// TestBuildAllocatesTypesOnly: Build allocates the domain and its Types
// array — no list of spans, walls or candidates that grows with the box
// or with the fluid.
func TestBuildAllocatesTypesOnly(t *testing.T) {
	for _, scale := range []float64{6, 12} {
		name, nx, ny, nz, caps, ports := cerebralTree(scale/2, 4)
		var d *Domain
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if d, err = Build(name, nx, ny, nz, caps, ports); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("cerebral@%g: %v allocations a Build, want the Domain and its Types", scale, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Build(name, nx, ny, nz, caps, ports); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		// A large object is rounded up to whole pages.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(d.Types))+16<<10; got > limit {
			t.Errorf("cerebral@%g: Build allocated %d bytes for %d sites", scale, got, len(d.Types))
		}
	}
}

// fuzzCapsules draws n capsules for an nx×ny×nz box from rng in the
// arrangements the row bounds have to survive: points, axis-aligned and
// diagonal segments, thin ones, ones that miss the box, and chains whose
// links overlap many times over.
func fuzzCapsules(rng *rand.Rand, n, nx, ny, nz int) []Capsule {
	point := func(spill float64) Vec3 {
		at := func(n int) float64 { return (rng.Float64()*(1+2*spill) - spill) * float64(n) }
		return Vec3{at(nx), at(ny), at(nz)}
	}
	var caps []Capsule
	for len(caps) < n {
		r := 0.2 + rng.Float64()*rng.Float64()*float64(min(nx, ny, nz))/3
		a, b := point(0.3), point(0.3)
		switch rng.Intn(8) {
		case 0: // a sphere
			b = a
		case 1: // along one axis, on lattice coordinates
			a = Vec3{math.Round(a.X), math.Round(a.Y), math.Round(a.Z)}
			b = a
			switch rng.Intn(3) {
			case 0:
				b.X += float64(rng.Intn(nx + 1))
			case 1:
				b.Y -= float64(rng.Intn(ny + 1))
			default:
				b.Z += float64(rng.Intn(nz + 1))
			}
		case 2: // thinner than a site
			r = 0.01 + 0.5*rng.Float64()
		case 3: // far outside
			a, b = point(3), point(3)
		case 4: // a chain of short overlapping links
			step := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			for i := 0; i < 12 && len(caps) < n; i++ {
				b = Vec3{a.X + step.X, a.Y + step.Y, a.Z + step.Z}
				caps = append(caps, Capsule{A: a, B: b, R: r * (1 - 0.03*float64(i))})
				a = b
			}
			continue
		case 5: // nearly parallel to x: a sliver of a projection
			b = Vec3{a.X + float64(nx), a.Y + 1e-9*rng.NormFloat64(), a.Z + 1e-7*rng.NormFloat64()}
		}
		caps = append(caps, Capsule{A: a, B: b, R: r})
	}
	return caps
}

// fuzzBuild runs Build and the reference on one drawn case.
func fuzzBuild(t *testing.T, seed int64, nx, ny, nz, ncaps, nports uint8) {
	rng := rand.New(rand.NewSource(seed))
	bx, by, bz := 1+int(nx)%40, 1+int(ny)%40, 1+int(nz)%40
	caps := fuzzCapsules(rng, 1+int(ncaps)%24, bx, by, bz)
	var ports []Port
	for i := 0; i < int(nports)%4; i++ {
		ports = append(ports, Port{
			XPlane: rng.Intn(bx+2) - 1,
			Center: Vec3{0, rng.Float64() * float64(by), rng.Float64() * float64(bz)},
			Radius: rng.Float64() * float64(by+bz),
			Type:   PointType(1 + rng.Intn(4)),
		})
	}
	got, gotErr := Build("fuzz", bx, by, bz, caps, ports)
	want, wantErr := referenceBuild("fuzz", bx, by, bz, caps, ports)
	if gotErr != nil && wantErr != nil {
		// Build checks every port before voxelizing, the reference each
		// as it comes to it: with two bad ports they may name different
		// ones.
		return
	}
	sameDomain(t, got, want, gotErr, wantErr)
}

// FuzzBuildMatchesReference: on random boxes, capsules and ports Build
// equals the reference, or both refuse. The seeds are what an ordinary
// test run covers.
func FuzzBuildMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		f.Add(rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
	f.Fuzz(fuzzBuild)
}

var sinkDomain *Domain

// BenchmarkBuild times Build on the campaign's shapes at scale 8, and on
// the aorta at the solver benchmark's 16, each beside the whole-box
// reference it replaced.
func BenchmarkBuild(b *testing.B) {
	run := func(name string, scale float64, build func(float64) (*Domain, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkDomain, err = build(scale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, shape := range campaignShapes {
		run(shape.name+"/build", 8, shape.build)
		run(shape.name+"/reference", 8, shape.reference)
		if shape.name == "aorta" {
			run("aorta16/build", 16, shape.build)
			run("aorta16/reference", 16, shape.reference)
		}
	}
}
