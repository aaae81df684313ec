// Package fit provides the curve-fitting and statistics primitives the
// performance models are built on: ordinary least squares for linear
// relations (the communication model, Eq. 12 of the paper), a continuous
// two-line ("broken stick") fit for node memory bandwidth (Eq. 8), and
// logarithmic-law fits for the load-imbalance and message-count models
// (Eqs. 11 and 15). All fitting minimizes the sum of squared errors (SSE)
// exactly as the paper describes.
//
// Everything operates on plain float64 slices; the only dependency
// beyond the standard library is the repository's own internal/units,
// whose ApproxEqual guards the degenerate-input branches.
package fit

import (
	"errors"
	"fmt"
	"math"

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
// SSE. For a candidate knee a3 the conditional optimum of (a1, a2) is a
// linear least-squares problem, so the fit scans knee candidates over a
// dense grid spanning the observed thread range and refines the best
// candidate with golden-section search. This mirrors the paper's "adjusting
// the parameters a1, a2, and a3 to minimize the SSE".
func TwoLineLSQ(threads, bw []float64) (TwoLine, error) {
	if err := checkSeries(threads, bw, 3); err != nil {
		return TwoLine{}, err
	}
	lo, hi := minMax(threads)
	if lo <= 0 {
		return TwoLine{}, fmt.Errorf("%w: thread counts must be positive", ErrBadInput)
	}
	// Dense scan for the knee. Allow knees slightly beyond the data so a
	// pure single-regime dataset degrades gracefully.
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
		return TwoLine{}, fmt.Errorf("%w: no valid knee candidate", ErrBadInput)
	}
	// Golden-section refinement around the best grid knee.
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

// twoLineGivenKnee solves the conditionally linear subproblem: with the
// knee a3 fixed, B(n) = a1*f1(n) + a2*f2(n) where f1(n) = min(n, a3) ...
// actually f1(n) = n for n<a3 and a3 for n>=a3; f2(n) = 0 for n<a3 and
// (n-a3) for n>=a3. Ordinary 2-parameter least squares in (a1, a2).
func twoLineGivenKnee(threads, bw []float64, a3 float64) (TwoLine, bool) {
	var s11, s12, s22, s1y, s2y float64
	nLeft := 0
	for i, n := range threads {
		var f1, f2 float64
		if n < a3 {
			f1, f2 = n, 0
			nLeft++
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
