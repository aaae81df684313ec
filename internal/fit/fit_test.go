package fit

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLinearLSQExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3.5*x + 1.25
	}
	l, err := LinearLSQ(xs, ys)
	if err != nil {
		t.Fatalf("LinearLSQ: %v", err)
	}
	if !almostEqual(l.Slope, 3.5, 1e-12) || !almostEqual(l.Intercept, 1.25, 1e-12) {
		t.Errorf("got slope=%v intercept=%v, want 3.5, 1.25", l.Slope, l.Intercept)
	}
	if l.R2 < 1-1e-12 {
		t.Errorf("R2 = %v, want ~1", l.R2)
	}
}

func TestLinearLSQNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2.0*xs[i] + 10 + rng.NormFloat64()*0.5
	}
	l, err := LinearLSQ(xs, ys)
	if err != nil {
		t.Fatalf("LinearLSQ: %v", err)
	}
	if !almostEqual(l.Slope, 2.0, 0.01) {
		t.Errorf("slope = %v, want ~2.0", l.Slope)
	}
	if math.Abs(l.Intercept-10) > 0.5 {
		t.Errorf("intercept = %v, want ~10", l.Intercept)
	}
}

func TestLinearLSQErrors(t *testing.T) {
	if _, err := LinearLSQ([]float64{1}, []float64{2}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := LinearLSQ([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := LinearLSQ([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("want error for degenerate x")
	}
	if _, err := LinearLSQ([]float64{1, math.NaN()}, []float64{1, 2}); err == nil {
		t.Error("want error for NaN input")
	}
	if _, err := LinearLSQ([]float64{1, math.Inf(1)}, []float64{1, 2}); err == nil {
		t.Error("want error for Inf input")
	}
}

func TestLinearThroughPoint(t *testing.T) {
	// Communication-model shape: t = m/b + l with pinned latency.
	const b, l = 2000.0, 20.0 // MB/s and µs scales are arbitrary here
	xs := []float64{1, 8, 64, 512, 4096, 32768}
	ys := make([]float64, len(xs))
	for i, m := range xs {
		ys[i] = m/b + l
	}
	fit, err := LinearThroughPoint(xs, ys, l)
	if err != nil {
		t.Fatalf("LinearThroughPoint: %v", err)
	}
	if !almostEqual(fit.Slope, 1/b, 1e-9) {
		t.Errorf("slope = %v, want %v", fit.Slope, 1/b)
	}
	if fit.Intercept != l {
		t.Errorf("intercept = %v, want pinned %v", fit.Intercept, l)
	}
}

func TestLinearThroughPointAllZeroX(t *testing.T) {
	if _, err := LinearThroughPoint([]float64{0, 0}, []float64{1, 2}, 0); err == nil {
		t.Error("want error when all x are zero")
	}
}

func TestPairLSQExact(t *testing.T) {
	x1 := []float64{1, 2, 3, 4, 5}
	x2 := []float64{0.5, 0.1, 2, 0, 1}
	ys := make([]float64, len(x1))
	for i := range ys {
		ys[i] = 1.18*x1[i] + 0.7*x2[i]
	}
	p, err := PairLSQ(x1, x2, ys)
	if err != nil {
		t.Fatalf("PairLSQ: %v", err)
	}
	if !almostEqual(p.B1, 1.18, 1e-12) || !almostEqual(p.B2, 0.7, 1e-12) {
		t.Errorf("got b1=%v b2=%v, want 1.18, 0.7", p.B1, p.B2)
	}
	if p.SSE > 1e-20 || p.SE1 > 1e-9 || p.SE2 > 1e-9 || p.N != 5 {
		t.Errorf("noiseless fit: %v, SSE %v", p, p.SSE)
	}
}

func TestPairLSQNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const b1, b2 = 1.18, 0.95
	n := 40
	x1, x2, ys := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ys {
		x1[i] = rng.Float64()
		x2[i] = rng.Float64()
		ys[i] = b1*x1[i] + b2*x2[i] + rng.NormFloat64()*0.02
	}
	p, err := PairLSQ(x1, x2, ys)
	if err != nil {
		t.Fatalf("PairLSQ: %v", err)
	}
	if p.SE1 <= 0 || p.SE2 <= 0 {
		t.Fatalf("noisy data must yield positive standard errors: %v", p)
	}
	if math.Abs(p.B1-b1) > 3*p.SE1 || math.Abs(p.B2-b2) > 3*p.SE2 {
		t.Errorf("%v: truth (%v, %v) not within 3 SE", p, b1, b2)
	}
}

func TestPairLSQErrors(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 3, 5, 4}
	for _, tc := range []struct {
		name       string
		x1, x2, ys []float64
		want       error
	}{
		{"collinear", x, []float64{2, 4, 6, 8}, y, ErrBadInput},
		{"zero column", x, []float64{0, 0, 0, 0}, y, ErrBadInput},
		{"two points", x[:2], []float64{1, 0}, y[:2], ErrInsufficientData},
		{"mismatched lengths", x, x[:3], y, ErrBadInput},
		{"NaN", x, []float64{1, math.NaN(), 0, 1}, y, ErrBadInput},
		{"Inf", x, []float64{1, 0, 1, 0}, []float64{1, math.Inf(-1), 2, 3}, ErrBadInput},
	} {
		if _, err := PairLSQ(tc.x1, tc.x2, tc.ys); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestTwoLineExactRecovery(t *testing.T) {
	// Noise-free data: the exact fit recovers the generating parameters.
	truth := TwoLine{A1: 6768.24, A2: 369.16, A3: 6.39} // TRC row of Table III
	var threads, bw []float64
	for n := 1; n <= 40; n++ {
		threads = append(threads, float64(n))
		bw = append(bw, truth.Eval(float64(n)))
	}
	got, err := TwoLineLSQ(threads, bw)
	if err != nil {
		t.Fatalf("TwoLineLSQ: %v", err)
	}
	for _, p := range []struct {
		name      string
		got, want float64
	}{{"a1", got.A1, truth.A1}, {"a2", got.A2, truth.A2}, {"a3", got.A3, truth.A3}} {
		if math.Abs(p.got-p.want) > 1e-9*math.Abs(p.want) {
			t.Errorf("%s = %v, want %v", p.name, p.got, p.want)
		}
	}
}

func TestTwoLineNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truth := TwoLine{A1: 7790.02, A2: 1264.80, A3: 9.0} // CSP-2 row of Table III
	var threads, bw []float64
	for n := 1; n <= 36; n++ {
		threads = append(threads, float64(n))
		bw = append(bw, truth.Eval(float64(n))*(1+rng.NormFloat64()*0.01))
	}
	got, err := TwoLineLSQ(threads, bw)
	if err != nil {
		t.Fatalf("TwoLineLSQ: %v", err)
	}
	if !almostEqual(got.A1, truth.A1, 0.05) {
		t.Errorf("a1 = %v, want ~%v", got.A1, truth.A1)
	}
	if !almostEqual(got.A2, truth.A2, 0.15) {
		t.Errorf("a2 = %v, want ~%v", got.A2, truth.A2)
	}
	if math.Abs(got.A3-truth.A3) > 1.5 {
		t.Errorf("a3 = %v, want ~%v", got.A3, truth.A3)
	}
}

func TestTwoLineContinuityProperty(t *testing.T) {
	// The fitted model must be continuous at the knee for any fit result.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := TwoLine{
			A1: 1000 + rng.Float64()*20000,
			A2: rng.Float64() * 2000,
			A3: 2 + rng.Float64()*20,
		}
		var threads, bw []float64
		for n := 1; n <= 48; n++ {
			threads = append(threads, float64(n))
			bw = append(bw, truth.Eval(float64(n))*(1+rng.NormFloat64()*0.02))
		}
		got, err := TwoLineLSQ(threads, bw)
		if err != nil {
			return false
		}
		eps := 1e-9
		left := got.Eval(got.A3 - eps)
		right := got.Eval(got.A3 + eps)
		return math.Abs(left-right) < 1e-3*math.Max(1, math.Abs(right))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTwoLineSingleRegime(t *testing.T) {
	// Purely linear data (knee beyond data range) must still fit well.
	var threads, bw []float64
	for n := 1; n <= 16; n++ {
		threads = append(threads, float64(n))
		bw = append(bw, 5000*float64(n))
	}
	got, err := TwoLineLSQ(threads, bw)
	if err != nil {
		t.Fatalf("TwoLineLSQ: %v", err)
	}
	for n := 1; n <= 16; n++ {
		want := 5000 * float64(n)
		if !almostEqual(got.Eval(float64(n)), want, 1e-2) {
			t.Fatalf("Eval(%d) = %v, want %v", n, got.Eval(float64(n)), want)
		}
	}
}

func TestTwoLineSaturation(t *testing.T) {
	m := TwoLine{A1: 1000, A2: 10, A3: 8}
	if got := m.Saturation(); got != 8000 {
		t.Errorf("Saturation = %v, want 8000", got)
	}
}

func TestLogLawRecovery(t *testing.T) {
	truth := LogLaw{C1: 0.15, C2: 0.02}
	var tasks, z []float64
	for _, n := range []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		tasks = append(tasks, n)
		z = append(z, truth.Eval(n))
	}
	got, err := LogLawLSQ(tasks, z)
	if err != nil {
		t.Fatalf("LogLawLSQ: %v", err)
	}
	if !almostEqual(got.C1, truth.C1, 0.05) {
		t.Errorf("c1 = %v, want ~%v", got.C1, truth.C1)
	}
	if !almostEqual(got.C2, truth.C2, 0.15) {
		t.Errorf("c2 = %v, want ~%v", got.C2, truth.C2)
	}
}

func TestLogLawSerialIsBalanced(t *testing.T) {
	// Eq. 11 must give exactly z = 1 at n = 1 regardless of parameters.
	f := func(c1, c2 float64) bool {
		m := LogLaw{C1: math.Abs(c1), C2: math.Abs(c2)}
		return m.Eval(1) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogLawMonotone(t *testing.T) {
	m := LogLaw{C1: 0.2, C2: 0.05}
	prev := m.Eval(1)
	for n := 2.0; n <= 4096; n *= 2 {
		cur := m.Eval(n)
		if cur < prev {
			t.Fatalf("z not monotone at n=%v: %v < %v", n, cur, prev)
		}
		prev = cur
	}
}

func TestLogLawRejectsBadTasks(t *testing.T) {
	if _, err := LogLawLSQ([]float64{0.5, 2}, []float64{1, 1.1}); err == nil {
		t.Error("want error for task count < 1")
	}
}

func TestGoldenMin(t *testing.T) {
	got := GoldenMin(-10, 10, 1e-9, func(x float64) float64 { return (x - 3.2) * (x - 3.2) })
	if math.Abs(got-3.2) > 1e-6 {
		t.Errorf("goldenMin = %v, want 3.2", got)
	}
	// Reversed bounds must work too.
	got = GoldenMin(10, -10, 1e-9, func(x float64) float64 { return (x + 1) * (x + 1) })
	if math.Abs(got+1) > 1e-6 {
		t.Errorf("goldenMin = %v, want -1", got)
	}
}

// twoLineGridOracle is the Eq. 8 fit TwoLineLSQ replaced, kept as its
// oracle: 401 knees on a grid over [lo, hi], each solved by
// twoLineGivenKnee, then golden-section refinement around the best. It
// finds a local minimum near the best grid knee, so its SSE bounds the
// exact fit's from above.
func twoLineGridOracle(threads, bw []float64) (TwoLine, error) {
	if err := checkSeries(threads, bw, 3); err != nil {
		return TwoLine{}, err
	}
	lo, hi := slices.Min(threads), slices.Max(threads)
	if lo <= 0 {
		return TwoLine{}, ErrBadInput
	}
	const gridSteps = 400
	bestSSE := math.Inf(1)
	var best TwoLine
	for i := 0; i <= gridSteps; i++ {
		a3 := lo + (hi-lo)*float64(i)/gridSteps
		cand, ok := twoLineGivenKnee(threads, bw, a3)
		if ok && cand.SSE < bestSSE {
			bestSSE = cand.SSE
			best = cand
		}
	}
	if math.IsInf(bestSSE, 1) {
		return TwoLine{}, ErrBadInput
	}
	step := (hi - lo) / gridSteps
	a, b := math.Max(lo, best.A3-2*step), math.Min(hi, best.A3+2*step)
	refined := GoldenMin(a, b, 1e-6, func(a3 float64) float64 {
		cand, ok := twoLineGivenKnee(threads, bw, a3)
		if !ok {
			return math.Inf(1)
		}
		return cand.SSE
	})
	if cand, ok := twoLineGivenKnee(threads, bw, refined); ok && cand.SSE <= best.SSE {
		best = cand
	}
	_, best.R2 = quality(threads, bw, best.Eval)
	best.N = len(threads)
	return best, nil
}

// twoLineGivenKnee solves the conditionally linear subproblem with the
// knee a3 fixed by one pass over the points: B(n) = a1*f1(n) + a2*f2(n)
// with f1(n) = n, f2(n) = 0 for n < a3 and f1(n) = a3, f2(n) = n - a3 for
// n >= a3, ordinary two-parameter least squares in (a1, a2).
func twoLineGivenKnee(threads, bw []float64, a3 float64) (TwoLine, bool) {
	var s11, s12, s22, s1y, s2y float64
	for i, n := range threads {
		var f1, f2 float64
		if n < a3 {
			f1, f2 = n, 0
		} else {
			f1, f2 = a3, n-a3
		}
		s11 += f1 * f1
		s12 += f1 * f2
		s22 += f2 * f2
		s1y += f1 * bw[i]
		s2y += f2 * bw[i]
	}
	det := s11*s22 - s12*s12
	var a1, a2 float64
	switch {
	case det != 0:
		a1 = (s22*s1y - s12*s2y) / det
		a2 = (s11*s2y - s12*s1y) / det
	case !units.ApproxEqual(s11, 0, degenTol):
		// All points on one side of the knee: single-slope fit.
		a1 = s1y / s11
		a2 = a1
	default:
		return TwoLine{}, false
	}
	t := TwoLine{A1: a1, A2: a2, A3: a3}
	t.SSE, _ = quality(threads, bw, t.Eval)
	return t, true
}

// twoLineInput builds one fit input from a fuzzer's choices: xb gives the
// thread counts (halves from 0.5 to 32, in xb's order, ties wherever xb
// repeats itself) and seed draws the bandwidths in one of five modes: a
// noisy two-line curve, a noiseless one, a single regime, all-equal
// values and structureless noise.
func twoLineInput(xb []byte, mode uint8, seed int64) (xs, ys []float64) {
	if len(xb) > 142 {
		xb = xb[:142]
	}
	rng := rand.New(rand.NewSource(seed))
	truth := TwoLine{A1: 1000 + 20000*rng.Float64(), A3: 1 + 31*rng.Float64()}
	truth.A2 = truth.A1 * (1.2*rng.Float64() - 0.2)
	noise := 0.1 * rng.Float64()
	for _, b := range xb {
		x := float64(1+b%64) / 2
		var y float64
		switch mode % 5 {
		case 0:
			y = truth.Eval(x) * (1 + noise*rng.NormFloat64())
		case 1:
			y = truth.Eval(x)
		case 2:
			y = truth.A1 * x * (1 + noise*rng.NormFloat64())
		case 3:
			y = truth.A1
		default:
			y = 1e4 * rng.NormFloat64()
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// checkNotAboveOracle asserts that TwoLineLSQ fails exactly when the
// oracle does, otherwise reaches an SSE no larger than the oracle's, and
// leaves its inputs untouched.
func checkNotAboveOracle(t *testing.T, xs, ys []float64) {
	t.Helper()
	xs0, ys0 := slices.Clone(xs), slices.Clone(ys)
	got, gotErr := TwoLineLSQ(xs, ys)
	if !slices.Equal(xs, xs0) || !slices.Equal(ys, ys0) {
		t.Fatalf("TwoLineLSQ modified its input")
	}
	want, wantErr := twoLineGridOracle(xs, ys)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("x=%v y=%v: TwoLineLSQ error %v, oracle error %v", xs, ys, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.SSE > want.SSE*(1+1e-9)+1e-9 {
		t.Fatalf("x=%v y=%v: exact SSE %v (%+v) above the oracle's %v (%+v)", xs, ys, got.SSE, got, want.SSE, want)
	}
}

// TestTwoLineLSQNotAboveOracle runs the fuzz property over seeded inputs
// of every kind: sorted sweeps 1..n and unsorted resamples of them with
// ties, n from 3 to 142, in each of twoLineInput's modes.
func TestTwoLineLSQNotAboveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 2000; i++ {
		n := 3 + rng.Intn(140)
		xb := make([]byte, n)
		for j := range xb {
			if i%4 == 0 {
				xb[j] = byte(rng.Intn(n))
			} else {
				xb[j] = byte(2*j + 1)
			}
		}
		xs, ys := twoLineInput(xb, uint8(i), rng.Int63())
		checkNotAboveOracle(t, xs, ys)
	}
}

func FuzzTwoLineLSQ(f *testing.F) {
	sweep := make([]byte, 36)
	for i := range sweep {
		sweep[i] = byte(2*i + 1)
	}
	for mode := uint8(0); mode < 5; mode++ {
		f.Add(sweep, mode, int64(mode))
		f.Add([]byte{5, 1, 5, 9, 1, 20, 3}, mode, int64(7+mode))
		f.Add([]byte{1, 3, 5}, mode, int64(11))
		f.Add([]byte{4, 4, 4, 4}, mode, int64(13))
	}
	f.Fuzz(func(t *testing.T, xb []byte, mode uint8, seed int64) {
		xs, ys := twoLineInput(xb, mode, seed)
		checkNotAboveOracle(t, xs, ys)
	})
}
