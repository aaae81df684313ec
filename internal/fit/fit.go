// Package fit provides the curve-fitting and statistics primitives the
// performance models are built on: ordinary least squares for linear
// relations (the communication model, Eq. 12 of the paper), a
// two-regressor fit through the origin (the per-term re-fit of a
// prediction against measurements), a continuous two-line ("broken
// stick") fit for node memory bandwidth (Eq. 8), and a logarithmic-law
// fit for the load-imbalance model (Eq. 11). All fitting minimizes the
// sum of squared errors (SSE), as the paper describes. The linear,
// two-regressor and two-line fits reach the global minimum in closed
// form — the two-line fit by Hudson's (1966) exact method for
// continuous segmented regression. The log-law fit, and the message-event
// fit (Eq. 15) in internal/perfmodel, scan a grid and refine it with
// GoldenMin.
//
// Everything operates on plain float64 slices; the only dependency
// beyond the standard library is the repository's own internal/units,
// whose ApproxEqual guards the degenerate-input branches.
package fit

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/units"
)

// ErrInsufficientData is returned when a fit is requested with fewer
// observations than free parameters.
var ErrInsufficientData = errors.New("fit: insufficient data points")

// ErrBadInput is returned when the x and y series disagree in length or
// contain non-finite values.
var ErrBadInput = errors.New("fit: invalid input data")

// degenTol bounds how close to zero a denominator or sum of squares may
// come before the fit treats the inputs as degenerate.
const degenTol = 1e-12

func checkSeries(xs, ys []float64, min int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("%w: len(x)=%d len(y)=%d", ErrBadInput, len(xs), len(ys))
	}
	if len(xs) < min {
		return fmt.Errorf("%w: need at least %d points, have %d", ErrInsufficientData, min, len(xs))
	}
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return fmt.Errorf("%w: non-finite value at index %d", ErrBadInput, i)
		}
	}
	return nil
}

// Linear holds the parameters of y = Slope*x + Intercept together with the
// fit quality. For the communication model of Eq. 12, x is message size in
// bytes, y is time, Slope is 1/bandwidth and Intercept is latency.
type Linear struct {
	Slope     float64
	Intercept float64
	SSE       float64 // sum of squared errors at the optimum
	R2        float64 // coefficient of determination
	N         int     // number of observations
}

// Eval returns the fitted value at x.
func (l Linear) Eval(x float64) float64 { return l.Slope*x + l.Intercept }

// String renders the line in slope-intercept form.
func (l Linear) String() string {
	return fmt.Sprintf("y = %.6g*x + %.6g (R²=%.4f, n=%d)", l.Slope, l.Intercept, l.R2, l.N)
}

// LinearLSQ fits y = a*x + b by ordinary least squares.
func LinearLSQ(xs, ys []float64) (Linear, error) {
	if err := checkSeries(xs, ys, 2); err != nil {
		return Linear{}, err
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if units.ApproxEqual(den, 0, degenTol) {
		return Linear{}, fmt.Errorf("%w: degenerate x values", ErrBadInput)
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	l := Linear{Slope: slope, Intercept: intercept, N: len(xs)}
	l.SSE, l.R2 = quality(xs, ys, l.Eval)
	return l, nil
}

// LinearThroughPoint fits y = a*x + b with b pinned to the supplied
// intercept, minimizing SSE over the slope alone. The paper pins the
// PingPong latency to the zero-byte message time ("curve fits enforce that
// latency is the communication time for 0 bytes and bandwidth depends on
// all data points"), which this implements.
func LinearThroughPoint(xs, ys []float64, intercept float64) (Linear, error) {
	if err := checkSeries(xs, ys, 1); err != nil {
		return Linear{}, err
	}
	var num, den float64
	for i := range xs {
		num += xs[i] * (ys[i] - intercept)
		den += xs[i] * xs[i]
	}
	if units.ApproxEqual(den, 0, degenTol) {
		return Linear{}, fmt.Errorf("%w: all x values are zero", ErrBadInput)
	}
	l := Linear{Slope: num / den, Intercept: intercept, N: len(xs)}
	l.SSE, l.R2 = quality(xs, ys, l.Eval)
	return l, nil
}

// Pair holds the parameters of y = B1*x1 + B2*x2, a plane through the
// origin in two regressors, with each coefficient's standard error.
type Pair struct {
	B1, B2   float64
	SE1, SE2 float64 // standard errors of B1 and B2
	SSE      float64 // sum of squared errors at the optimum
	N        int     // number of observations
}

// PairLSQ fits y = b1*x1 + b2*x2 with no intercept by ordinary least
// squares, solving the 2×2 normal equations in closed form. The standard
// errors are the square roots of the diagonal of s²·(XᵀX)⁻¹, where s² is
// the residual variance SSE/(n−2). It needs three points, one more than
// the coefficients, so that s² is defined, and fails with ErrBadInput
// when the two columns are collinear (either one all zero included).
func PairLSQ(x1, x2, ys []float64) (Pair, error) {
	if err := checkSeries(x1, ys, 3); err != nil {
		return Pair{}, err
	}
	if err := checkSeries(x2, ys, 3); err != nil {
		return Pair{}, err
	}
	var s11, s12, s22, r1, r2 float64
	for i := range ys {
		s11 += x1[i] * x1[i]
		s12 += x1[i] * x2[i]
		s22 += x2[i] * x2[i]
		r1 += x1[i] * ys[i]
		r2 += x2[i] * ys[i]
	}
	// The determinant is compared with s11·s22, its value for orthogonal
	// columns, so the test is independent of the columns' scale; the
	// negated form also rejects sums that overflowed to NaN.
	det := s11*s22 - s12*s12
	if !(det > degenTol*s11*s22) {
		return Pair{}, fmt.Errorf("%w: collinear regressors", ErrBadInput)
	}
	p := Pair{B1: (s22*r1 - s12*r2) / det, B2: (s11*r2 - s12*r1) / det, N: len(ys)}
	for i := range ys {
		r := ys[i] - p.B1*x1[i] - p.B2*x2[i]
		p.SSE += r * r
	}
	s2 := p.SSE / float64(p.N-2)
	p.SE1 = math.Sqrt(s2 * s22 / det)
	p.SE2 = math.Sqrt(s2 * s11 / det)
	return p, nil
}

// quality computes SSE and R² of model f over the observations.
func quality(xs, ys []float64, f func(float64) float64) (sse, r2 float64) {
	mean := Mean(ys)
	var sst float64
	for i := range xs {
		r := ys[i] - f(xs[i])
		sse += r * r
		d := ys[i] - mean
		sst += d * d
	}
	if units.ApproxEqual(sst, 0, degenTol) {
		if units.ApproxEqual(sse, 0, degenTol) {
			return 0, 1
		}
		return sse, 0
	}
	return sse, 1 - sse/sst
}

// TwoLine holds the parameters of the paper's Eq. 8 bandwidth model:
//
//	B(n) = a1*n                      for n <  a3
//	B(n) = a2*n + a3*(a1-a2)         for n >= a3
//
// The model is continuous at the knee n = a3 by construction. A1 is the
// per-core bandwidth in the core-limited regime; A2 the residual slope in
// the memory-subsystem-limited regime; A3 the knee position in threads.
type TwoLine struct {
	A1  float64
	A2  float64
	A3  float64
	SSE float64
	R2  float64
	N   int
}

// Eval returns the modeled bandwidth at thread count n.
func (t TwoLine) Eval(n float64) float64 {
	if n < t.A3 {
		return t.A1 * n
	}
	return t.A2*n + t.A3*(t.A1-t.A2)
}

// Saturation returns the modeled bandwidth at the knee, the point where the
// node's memory subsystem becomes the limiter.
func (t TwoLine) Saturation() float64 { return t.A1 * t.A3 }

// String renders the two-line model parameters.
func (t TwoLine) String() string {
	return fmt.Sprintf("B(n) = {%.4g*n | n<%.3g; %.4g*n+%.4g | n>=%.3g} (R²=%.4f)",
		t.A1, t.A3, t.A2, t.A3*(t.A1-t.A2), t.A3, t.R2)
}

// TwoLineLSQ fits Eq. 8 to (threads, bandwidth) observations by minimizing
// SSE over every knee a3 in [min(threads), max(threads)], exactly: the
// continuous segmented regression of Hudson (1966). With the points in
// thread order, a knee strictly between two neighbouring distinct thread
// counts fixes which points lie on which line. The best fit for that split
// is a slope through the origin on the left and an ordinary least-squares
// line on the right; it is the split's optimum when the knee it implies,
// where the two lines meet, lies in the gap. When it does not, the split's
// optimum has its knee on an edge of the gap, so a fit with the knee at
// every distinct thread count completes the candidates. Running sums make
// each candidate and its SSE O(1), so the fit is one sort, skipped for a
// sweep already in thread order, and linear passes; the winner's SSE and
// R² are then recomputed from its residuals.
func TwoLineLSQ(threads, bw []float64) (TwoLine, error) {
	if err := checkSeries(threads, bw, 3); err != nil {
		return TwoLine{}, err
	}
	xs, ys := threads, bw
	if !slices.IsSorted(xs) {
		xs, ys = sortedByX(xs, ys)
	}
	if xs[0] <= 0 {
		return TwoLine{}, fmt.Errorf("%w: thread counts must be positive", ErrBadInput)
	}
	var total, left sums
	for i := range xs {
		total.add(xs[i], ys[i])
	}
	best, bestSSE := TwoLine{}, math.Inf(1)
	for i := 0; i < len(xs); {
		// Points [i, j) share the thread count u; left holds every point
		// below it.
		u := xs[i]
		j := i + 1
		for j < len(xs) && xs[j] == u {
			j++
		}
		right := total.minus(left)
		last := j == len(xs)
		if i > 0 && !last {
			if t, sse, ok := splitFit(left, right, xs[i-1], u); ok && sse < bestSSE {
				best, bestSSE = t, sse
			}
		}
		if t, sse, ok := kneeFit(left, right, u, last); ok && sse < bestSSE {
			best, bestSSE = t, sse
		}
		for ; i < j; i++ {
			left.add(xs[i], ys[i])
		}
	}
	if math.IsInf(bestSSE, 1) {
		return TwoLine{}, fmt.Errorf("%w: no valid knee candidate", ErrBadInput)
	}
	best.SSE, best.R2 = quality(threads, bw, best.Eval)
	best.N = len(threads)
	return best, nil
}

// sortedByX returns copies of xs and ys reordered by ascending x; points
// with equal x keep their input order.
func sortedByX(xs, ys []float64) ([]float64, []float64) {
	type point struct{ x, y float64 }
	pts := make([]point, len(xs))
	for i := range xs {
		pts[i] = point{xs[i], ys[i]}
	}
	slices.SortStableFunc(pts, func(a, b point) int { return cmp.Compare(a.x, b.x) })
	buf := make([]float64, 2*len(pts))
	sx, sy := buf[:len(pts)], buf[len(pts):]
	for i, p := range pts {
		sx[i], sy[i] = p.x, p.y
	}
	return sx, sy
}

// sums holds the count and the running sums of x, y, x², xy and y² of a
// set of points: everything a least-squares line over them needs.
type sums struct{ n, x, y, xx, xy, yy float64 }

func (s *sums) add(x, y float64) {
	s.n++
	s.x += x
	s.y += y
	s.xx += x * x
	s.xy += x * y
	s.yy += y * y
}

func (s sums) minus(o sums) sums {
	return sums{s.n - o.n, s.x - o.x, s.y - o.y, s.xx - o.xx, s.xy - o.xy, s.yy - o.yy}
}

// splitFit is the best fit for one split of the points, with l left of
// the knee and r right of it (r spanning at least two distinct x): a
// slope a1 through the origin over l, an OLS line a2*x + b2 over r. It is
// a TwoLine only if the knee where the lines meet, b2/(a1-a2), lies in
// (lo, hi], the gap between l's largest x and r's smallest. It also
// returns the fit's SSE.
func splitFit(l, r sums, lo, hi float64) (TwoLine, float64, bool) {
	a1 := l.xy / l.xx
	rxx := r.xx - r.x*r.x/r.n
	rxy := r.xy - r.x*r.y/r.n
	a2 := rxy / rxx
	b2 := (r.y - a2*r.x) / r.n
	a3 := b2 / (a1 - a2)
	if !(a3 > lo && a3 <= hi) { // also false for the NaN of parallel lines
		return TwoLine{}, 0, false
	}
	sse := (l.yy - a1*l.xy) + (r.yy - r.y*r.y/r.n - a2*rxy)
	return TwoLine{A1: a1, A2: a2, A3: a3}, sse, true
}

// kneeFit solves the conditionally linear subproblem with the knee fixed
// at a3, a point x of the data: l holds the points below a3, r the rest,
// and last says every point of r sits at a3 itself. Eq. 8 is then
// B(n) = a1*f1(n) + a2*f2(n) with f1(n) = n, f2(n) = 0 for n < a3 and
// f1(n) = a3, f2(n) = n - a3 for n >= a3: two-parameter least squares in
// (a1, a2), assembled from the sums. With no point beyond the knee a2 is
// undetermined, and the fit is the single slope a1 = a2. It also returns
// the fit's SSE.
func kneeFit(l, r sums, a3 float64, last bool) (TwoLine, float64, bool) {
	s11 := l.xx + a3*a3*r.n
	s1y := l.xy + a3*r.y
	var s12, s22, s2y float64
	if !last {
		s12 = a3 * (r.x - a3*r.n)
		s22 = r.xx - 2*a3*r.x + a3*a3*r.n
		s2y = r.xy - a3*r.y
	}
	det := s11*s22 - s12*s12
	var a1, a2 float64
	switch {
	case det != 0:
		a1 = (s22*s1y - s12*s2y) / det
		a2 = (s11*s2y - s12*s1y) / det
	case !units.ApproxEqual(s11, 0, degenTol):
		a1 = s1y / s11
		a2 = a1
	default:
		return TwoLine{}, 0, false
	}
	sse := l.yy + r.yy - a1*s1y - a2*s2y
	return TwoLine{A1: a1, A2: a2, A3: a3}, sse, true
}

// LogLaw holds the parameters of y = c1*ln(c2*(x-1) + 1) + 1, the paper's
// Eq. 11 load-imbalance model. It equals exactly 1 at x = 1 (a serial run
// is perfectly balanced by definition).
type LogLaw struct {
	C1  float64
	C2  float64
	SSE float64
	R2  float64
	N   int
}

// Eval returns the modeled imbalance factor at task count x.
func (l LogLaw) Eval(x float64) float64 {
	arg := l.C2*(x-1) + 1
	if arg <= 0 {
		return math.Inf(1)
	}
	return l.C1*math.Log(arg) + 1
}

// String renders the log-law parameters.
func (l LogLaw) String() string {
	return fmt.Sprintf("z(n) = %.4g*ln(%.4g*(n-1)+1)+1 (R²=%.4f)", l.C1, l.C2, l.R2)
}

// LogLawLSQ fits Eq. 11 by SSE minimization. For fixed c2 the optimum c1 is
// linear, so the fit scans c2 over a log-spaced grid and refines with
// golden-section search on log(c2).
func LogLawLSQ(tasks, z []float64) (LogLaw, error) {
	if err := checkSeries(tasks, z, 2); err != nil {
		return LogLaw{}, err
	}
	for _, x := range tasks {
		if x < 1 {
			return LogLaw{}, fmt.Errorf("%w: task counts must be >= 1", ErrBadInput)
		}
	}
	sseFor := func(logC2 float64) (LogLaw, float64) {
		c2 := math.Exp(logC2)
		var num, den float64
		for i := range tasks {
			g := math.Log(c2*(tasks[i]-1) + 1)
			num += g * (z[i] - 1)
			den += g * g
		}
		c1 := 0.0
		if den > 0 {
			c1 = num / den
		}
		m := LogLaw{C1: c1, C2: c2}
		sse, _ := quality(tasks, z, m.Eval)
		m.SSE = sse
		return m, sse
	}
	bestSSE := math.Inf(1)
	var best LogLaw
	for lg := -12.0; lg <= 6.0; lg += 0.05 {
		m, sse := sseFor(lg)
		if sse < bestSSE {
			bestSSE, best = sse, m
		}
	}
	refined := GoldenMin(math.Log(best.C2)-0.1, math.Log(best.C2)+0.1, 1e-9, func(lg float64) float64 {
		_, sse := sseFor(lg)
		return sse
	})
	if m, sse := sseFor(refined); sse <= best.SSE {
		best = m
	}
	_, best.R2 = quality(tasks, z, best.Eval)
	best.N = len(tasks)
	return best, nil
}

// GoldenMin minimizes f on [a, b] by golden-section search to the given
// absolute tolerance on x. It is exported for the model-calibration fits
// in internal/perfmodel, which share this package's SSE-scan strategy.
func GoldenMin(a, b, tol float64, f func(float64) float64) float64 {
	if b < a {
		a, b = b, a
	}
	const invPhi = 0.6180339887498949
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return (a + b) / 2
}
