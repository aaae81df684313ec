package fit

import (
	"fmt"
	"math"
	"math/rand"
)

// Uncertainty reports a fitted parameter's bootstrap spread.
type Uncertainty struct {
	Mean   float64
	StdErr float64 // standard deviation of the bootstrap estimates
}

// String renders mean ± standard error.
func (u Uncertainty) String() string {
	return fmt.Sprintf("%.4g ± %.2g", u.Mean, u.StdErr)
}

// TwoLineUncertainty holds bootstrap uncertainties of the Eq. 8
// parameters.
type TwoLineUncertainty struct {
	A1, A2, A3 Uncertainty
	Resamples  int
}

// BootstrapTwoLine estimates the sampling uncertainty of a two-line fit
// by case resampling: refit on `resamples` bootstrap draws of the
// observation pairs and report the spread of each parameter. This is how
// the characterization can attach error bars to Table III without
// distributional assumptions.
func BootstrapTwoLine(threads, bw []float64, resamples int, rng *rand.Rand) (TwoLineUncertainty, error) {
	if len(threads) != len(bw) || len(threads) < 4 {
		return TwoLineUncertainty{}, fmt.Errorf("fit: bootstrap needs >= 4 paired points, have %d/%d", len(threads), len(bw))
	}
	if resamples < 10 {
		return TwoLineUncertainty{}, fmt.Errorf("fit: at least 10 resamples required, got %d", resamples)
	}
	if rng == nil {
		return TwoLineUncertainty{}, fmt.Errorf("fit: nil rng")
	}
	n := len(threads)
	var a1s, a2s, a3s []float64
	xs := make([]float64, n)
	ys := make([]float64, n)
	for r := 0; r < resamples; r++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			xs[i], ys[i] = threads[j], bw[j]
		}
		f, err := TwoLineLSQ(xs, ys)
		if err != nil {
			continue // a degenerate resample (e.g. one unique x) is skipped
		}
		a1s = append(a1s, f.A1)
		a2s = append(a2s, f.A2)
		a3s = append(a3s, f.A3)
	}
	if len(a1s) < resamples/2 {
		return TwoLineUncertainty{}, fmt.Errorf("fit: only %d of %d resamples fit", len(a1s), resamples)
	}
	return TwoLineUncertainty{
		A1:        summarizeU(a1s),
		A2:        summarizeU(a2s),
		A3:        summarizeU(a3s),
		Resamples: len(a1s),
	}, nil
}

// summarizeU condenses bootstrap estimates into mean ± stderr.
func summarizeU(xs []float64) Uncertainty {
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	sd := 0.0
	if len(xs) > 1 {
		sd = math.Sqrt(ss / float64(len(xs)-1))
	}
	return Uncertainty{Mean: m, StdErr: sd}
}
