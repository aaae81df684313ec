// Package monitor is the performance-monitoring layer the paper's
// Discussion anticipates ("performance monitoring projects such as SONAR
// are expected to be extremely useful in helping to automate and track
// the measured performance against model predictions"): the one
// append-only store of completed runs with their predictions. Baselines
// and regression detection per configuration, and the iterative-
// refinement correction ("storing all measured performance along with
// the estimated performance model prediction will be critical to
// iteratively refining the performance models"), are views over it.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/fit"
	"repro/internal/perfmodel"
)

// Sample is one telemetry record from a completed run.
type Sample struct {
	TimeS     float64 `json:"time"` // simulated epoch seconds
	Workload  string  `json:"workload"`
	System    string  `json:"system"`
	Model     string  `json:"model,omitempty"` // which model predicted, if any
	Tier      string  `json:"tier,omitempty"`  // which tier predicted; "" is Tier 1 (see Add)
	Ranks     int     `json:"ranks"`
	MFLUPS    float64 `json:"mflups"`
	Predicted float64 `json:"predicted_mflups,omitempty"`
	CostUSD   float64 `json:"cost_usd"`
	// WaitS is the queue wait before the run first started, reported by
	// fleet-scheduled jobs (0 for directly submitted runs).
	WaitS float64 `json:"wait_s,omitempty"`
}

// escapeKeyPart makes a name safe for embedding in a "|"-separated
// configuration key: without it, workload "a|b" system "c" and workload
// "a" system "b|c" would collide on the same key.
func escapeKeyPart(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "|", `\|`)
}

// Key identifies a monitored configuration: workload, system and rank
// count, "|"-joined with each part escaped.
func (s Sample) Key() string {
	return fmt.Sprintf("%s|%s|%d", escapeKeyPart(s.Workload), escapeKeyPart(s.System), s.Ranks)
}

// refines reports whether the sample is a measured-vs-Tier-1 residual,
// the only kind the refinement correction is taken over: scaling Tier 1
// output by the bias of a spec-sheet estimate or a table value would
// mix the tiers' provenance. The other tiers' residuals stay in the
// store for per-(system, tier) drift telemetry.
func (s Sample) refines() bool { return s.Predicted > 0 && s.Tier == "" }

// Store is an append-only telemetry store.
type Store struct {
	samples []Sample
}

// Add appends a sample after validation. Samples must arrive in
// non-decreasing time order (the monitor tails a live system). Tier 1 has
// one spelling in the store, the empty string: it is what a file written
// before the field existed holds, and a Tier-1-only store saves as one.
func (st *Store) Add(s Sample) error {
	if s.Tier == perfmodel.Tier1Calibrated {
		s.Tier = ""
	}
	// NaN slips past a plain <= 0 guard (every NaN comparison is false),
	// so non-finite fields need their own check.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"time", s.TimeS}, {"MFLUPS", s.MFLUPS}, {"predicted MFLUPS", s.Predicted},
		{"cost", s.CostUSD}, {"wait", s.WaitS},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("monitor: sample for %s has non-finite %s (%g)", s.Key(), f.name, f.v)
		}
	}
	if s.MFLUPS <= 0 {
		return fmt.Errorf("monitor: sample for %s has non-positive MFLUPS", s.Key())
	}
	if s.Predicted < 0 {
		return fmt.Errorf("monitor: sample for %s has negative predicted MFLUPS", s.Key())
	}
	if s.Workload == "" || s.System == "" {
		return fmt.Errorf("monitor: sample missing workload or system")
	}
	if n := len(st.samples); n > 0 && s.TimeS < st.samples[n-1].TimeS {
		return fmt.Errorf("monitor: sample at t=%g arrives before t=%g", s.TimeS, st.samples[n-1].TimeS)
	}
	st.samples = append(st.samples, s)
	return nil
}

// Len returns the number of stored samples.
func (st *Store) Len() int { return len(st.samples) }

// grouped splits the store by configuration in one pass: the sorted
// configuration keys, and under each key its samples in arrival order.
// Configurations are told apart by their fields; the escaped key is
// built once per configuration.
func (st *Store) grouped() ([]string, map[string][]Sample) {
	byConfig := map[Sample][]Sample{}
	for _, s := range st.samples {
		c := Sample{Workload: s.Workload, System: s.System, Ranks: s.Ranks}
		byConfig[c] = append(byConfig[c], s)
	}
	keys := make([]string, 0, len(byConfig))
	series := make(map[string][]Sample, len(byConfig))
	for c, g := range byConfig {
		key := c.Key()
		keys = append(keys, key)
		series[key] = g
	}
	sort.Strings(keys)
	return keys, series
}

// Series returns the samples of one configuration in arrival order.
func (st *Store) Series(workload, system string, ranks int) []Sample {
	_, series := st.grouped()
	return series[Sample{Workload: workload, System: system, Ranks: ranks}.Key()]
}

// Configurations lists the distinct monitored configurations, sorted.
func (st *Store) Configurations() []string {
	keys, _ := st.grouped()
	return keys
}

// summarize takes the throughput statistics of a series.
func summarize(series []Sample) fit.Summary {
	vals := make([]float64, len(series))
	for i, s := range series {
		vals[i] = s.MFLUPS
	}
	return fit.Summarize(vals)
}

// Baseline summarizes a configuration's throughput history.
func (st *Store) Baseline(workload, system string, ranks int) (fit.Summary, error) {
	series := st.Series(workload, system, ranks)
	if len(series) == 0 {
		return fit.Summary{}, fmt.Errorf("monitor: no samples for %s/%s/%d", workload, system, ranks)
	}
	return summarize(series), nil
}

// Regression flags a configuration whose latest run fell significantly
// below its historical baseline.
type Regression struct {
	Workload       string
	System         string
	Ranks          int
	BaselineMFLUPS float64 // historical mean (excluding the latest run)
	LatestMFLUPS   float64
	Sigmas         float64 // how many baseline standard deviations below mean
}

// DetectRegressions scans every configuration with at least minHistory+1
// samples and reports those whose latest throughput sits more than
// threshold standard deviations below the mean of the preceding history.
func (st *Store) DetectRegressions(minHistory int, threshold float64) ([]Regression, error) {
	if minHistory < 2 {
		return nil, fmt.Errorf("monitor: need at least 2 history samples, got %d", minHistory)
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("monitor: non-positive threshold %g", threshold)
	}
	var out []Regression
	keys, grouped := st.grouped()
	for _, key := range keys {
		series := grouped[key]
		if len(series) < minHistory+1 {
			continue
		}
		latest := series[len(series)-1]
		sum := summarize(series[:len(series)-1])
		if sum.StdDev == 0 {
			continue // a perfectly flat history cannot grade deviations
		}
		sigmas := (sum.Mean - latest.MFLUPS) / sum.StdDev
		if sigmas > threshold {
			out = append(out, Regression{
				Workload:       latest.Workload,
				System:         latest.System,
				Ranks:          latest.Ranks,
				BaselineMFLUPS: sum.Mean,
				LatestMFLUPS:   latest.MFLUPS,
				Sigmas:         sigmas,
			})
		}
	}
	return out, nil
}

// Correction returns the multiplicative calibration factor for a system
// and model at a rank count: the geometric mean of measured/predicted over
// the matching Tier 1 samples. Both of the paper's models "overpredicted
// ... by a consistent amount in all cases", which is exactly the bias a
// multiplicative correction removes. The bias is regime-dependent
// (memory-dominated small runs versus latency-dominated large ones), so
// samples at the same rank count are preferred; the fallbacks widen to
// the system, then the model, then 1 when nothing matches yet (an
// uncalibrated model is used as-is). ranks <= 0 skips the rank-specific
// level.
func (st *Store) Correction(system, model string, ranks int) float64 {
	var atRanks, onSystem, ofModel []float64
	for _, s := range st.samples {
		if !s.refines() || s.Model != model {
			continue
		}
		ratio := s.MFLUPS / s.Predicted
		ofModel = append(ofModel, ratio)
		if s.System == system {
			onSystem = append(onSystem, ratio)
			if ranks > 0 && s.Ranks == ranks {
				atRanks = append(atRanks, ratio)
			}
		}
	}
	for _, ratios := range [][]float64{atRanks, onSystem, ofModel} {
		if len(ratios) > 0 {
			return fit.GeoMean(ratios)
		}
	}
	return 1
}

// Refine applies the current calibration to a prediction, returning the
// corrected copy. Time-like components scale inversely with throughput.
func (st *Store) Refine(p perfmodel.Prediction) perfmodel.Prediction {
	c := st.Correction(p.System, p.Model, p.Ranks)
	out := p
	out.MFLUPS = p.MFLUPS * c
	if c > 0 {
		out.SecondsPerStep = p.SecondsPerStep / c
	}
	return out
}

// MAPE reports the mean absolute percentage error of a system's Tier 1
// samples before and after calibration — the feedback metric that decides
// whether a model term earns its place (the paper's "system of adding and
// checking").
func (st *Store) MAPE(system, model string) (before, after float64, n int) {
	var sumB, sumA float64
	for _, s := range st.samples {
		if !s.refines() || s.System != system || s.Model != model {
			continue
		}
		c := st.Correction(system, model, s.Ranks)
		sumB += math.Abs(s.Predicted-s.MFLUPS) / s.MFLUPS
		sumA += math.Abs(s.Predicted*c-s.MFLUPS) / s.MFLUPS
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return sumB / float64(n), sumA / float64(n), n
}

// Render formats a status report: every monitored configuration with its
// baseline statistics and latest observation.
func (st *Store) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %8s %12s %10s %12s\n",
		"configuration", "samples", "mean MFLUPS", "cv", "latest")
	keys, grouped := st.grouped()
	for _, key := range keys {
		series := grouped[key]
		sum := summarize(series)
		fmt.Fprintf(&b, "%-40s %8d %12.2f %10.3f %12.2f\n",
			key, sum.N, sum.Mean, sum.CV, series[len(series)-1].MFLUPS)
	}
	return b.String()
}

// Save serializes the store as JSON.
func (st *Store) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st.samples)
}

// Load replaces the store's contents from JSON written by Save.
func (st *Store) Load(r io.Reader) error {
	var samples []Sample
	if err := json.NewDecoder(r).Decode(&samples); err != nil {
		return fmt.Errorf("monitor: loading samples: %w", err)
	}
	restored := Store{}
	for _, s := range samples {
		if err := restored.Add(s); err != nil {
			return err
		}
	}
	*st = restored
	return nil
}
