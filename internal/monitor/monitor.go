// Package monitor is the performance-monitoring layer the paper's
// Discussion anticipates ("performance monitoring projects such as SONAR
// are expected to be extremely useful in helping to automate and track
// the measured performance against model predictions"): an append-only
// telemetry store of completed runs with their predictions, statistical
// baselines per configuration, regression detection, and export of
// prediction/measurement pairs into the model-refinement loop.
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

// Store is an append-only telemetry store.
type Store struct {
	samples []Sample
}

// Add appends a sample after validation. Samples must arrive in
// non-decreasing time order (the monitor tails a live system).
func (st *Store) Add(s Sample) error {
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

// Series returns the samples of one configuration in arrival order.
func (st *Store) Series(workload, system string, ranks int) []Sample {
	key := Sample{Workload: workload, System: system, Ranks: ranks}.Key()
	var out []Sample
	for _, s := range st.samples {
		if s.Key() == key {
			out = append(out, s)
		}
	}
	return out
}

// Configurations lists the distinct monitored configurations, sorted.
func (st *Store) Configurations() []string {
	seen := map[string]bool{}
	for _, s := range st.samples {
		seen[s.Key()] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Baseline summarizes a configuration's throughput history.
func (st *Store) Baseline(workload, system string, ranks int) (fit.Summary, error) {
	series := st.Series(workload, system, ranks)
	if len(series) == 0 {
		return fit.Summary{}, fmt.Errorf("monitor: no samples for %s/%s/%d", workload, system, ranks)
	}
	vals := make([]float64, len(series))
	for i, s := range series {
		vals[i] = s.MFLUPS
	}
	return fit.Summarize(vals), nil
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
	for _, key := range st.Configurations() {
		var series []Sample
		for _, s := range st.samples {
			if s.Key() == key {
				series = append(series, s)
			}
		}
		if len(series) < minHistory+1 {
			continue
		}
		latest := series[len(series)-1]
		hist := make([]float64, len(series)-1)
		for i, s := range series[:len(series)-1] {
			hist[i] = s.MFLUPS
		}
		sum := fit.Summarize(hist)
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

// Records exports every sample that carries a prediction as a refinement
// record — the automation loop the paper sketches: monitoring feeds the
// model store without human bookkeeping.
func (st *Store) Records() []perfmodel.Record {
	var out []perfmodel.Record
	for _, s := range st.samples {
		if s.Predicted <= 0 {
			continue
		}
		out = append(out, perfmodel.Record{
			Workload:  s.Workload,
			System:    s.System,
			Model:     s.Model,
			Ranks:     s.Ranks,
			Predicted: s.Predicted,
			Measured:  s.MFLUPS,
		})
	}
	return out
}

// FeedRefiner pushes all prediction-bearing samples into a refiner.
func (st *Store) FeedRefiner(r *perfmodel.Refiner) error {
	for _, rec := range st.Records() {
		if err := r.Add(rec); err != nil {
			return err
		}
	}
	return nil
}

// Render formats a status report: every monitored configuration with its
// baseline statistics and latest observation.
func (st *Store) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %8s %12s %10s %12s\n",
		"configuration", "samples", "mean MFLUPS", "cv", "latest")
	for _, key := range st.Configurations() {
		var series []Sample
		for _, s := range st.samples {
			if s.Key() == key {
				series = append(series, s)
			}
		}
		vals := make([]float64, len(series))
		for i, s := range series {
			vals[i] = s.MFLUPS
		}
		sum := fit.Summarize(vals)
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
