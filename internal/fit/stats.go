package fit

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample, as reported in the
// paper's noise-variability study (Table IV): mean, standard deviation and
// the coefficient of variation (σ/μ).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	CV     float64 // coefficient of variation, StdDev/Mean
	Min    float64
	Max    float64
	Median float64
}

// String renders the summary in Table IV's columns.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f cv=%.3f", s.N, s.Mean, s.StdDev, s.CV)
}

// Summarize computes descriptive statistics for xs. It panics on an empty
// sample, which always indicates a programming error in a caller that
// should have generated measurements.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("fit: Summarize on empty sample")
	}
	s := Summary{N: len(xs), Mean: Mean(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	if s.Mean != 0 {
		s.CV = s.StdDev / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SSE returns the sum of squared differences between predictions and
// observations. The slices must have equal length.
func SSE(pred, obs []float64) float64 {
	if len(pred) != len(obs) {
		panic("fit: SSE length mismatch")
	}
	var sse float64
	for i := range pred {
		d := pred[i] - obs[i]
		sse += d * d
	}
	return sse
}

// MAPE returns the mean absolute percentage error of predictions against
// observations, skipping observations equal to zero. Useful for judging
// performance-model accuracy in the refinement loop.
func MAPE(pred, obs []float64) float64 {
	if len(pred) != len(obs) {
		panic("fit: MAPE length mismatch")
	}
	var sum float64
	n := 0
	for i := range pred {
		if obs[i] == 0 {
			continue
		}
		sum += math.Abs((pred[i] - obs[i]) / obs[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			panic("fit: GeoMean requires positive values")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
