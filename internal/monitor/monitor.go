// Package monitor is the performance-monitoring layer the paper's
// Discussion anticipates ("performance monitoring projects such as SONAR
// are expected to be extremely useful in helping to automate and track
// the measured performance against model predictions"): the one
// append-only store of completed runs with their predictions. The
// iterative-refinement correction ("storing all measured performance
// along with the estimated performance model prediction will be critical
// to iteratively refining the performance models") is a view over it,
// learned per term of the model.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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
	// MemS and CommS split a Tier 1 prediction's seconds per step into
	// its memory term and the communication remainder SecondsPerStep −
	// MemS, the two terms Correction fits. Both are 0 for other tiers and
	// in files written before the fields existed.
	MemS  float64 `json:"mem_s,omitempty"`
	CommS float64 `json:"comm_s,omitempty"`
}

// FromPrediction is the one way a prediction enters a Sample: its
// system, model, tier, rank count and throughput, and for Tier 1 its two
// terms. The caller adds the run's time, workload and measurement.
func FromPrediction(p perfmodel.Prediction) Sample {
	s := Sample{System: p.System, Model: p.Model, Tier: p.Tier, Ranks: p.Ranks, Predicted: p.MFLUPS}
	if p.Tier == "" || p.Tier == perfmodel.Tier1Calibrated {
		s.MemS, s.CommS = p.MemS, max(p.SecondsPerStep-p.MemS, 0)
	}
	return s
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

// row is the sample's row of the per-term fit: the predicted memory time
// and communication remainder over the measured time, fitted to 1, so
// every run weighs as a relative error. The measured time is the
// predicted one scaled by predicted/measured MFLUPS. ok is false for a
// sample without terms.
func (s Sample) row() (mem, comm float64, ok bool) {
	predS := s.MemS + s.CommS
	if predS <= 0 {
		return 0, 0, false
	}
	measuredS := predS * s.Predicted / s.MFLUPS
	return s.MemS / measuredS, s.CommS / measuredS, true
}

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
		{"cost", s.CostUSD}, {"wait", s.WaitS}, {"memory time", s.MemS}, {"communication time", s.CommS},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("monitor: sample for %s has non-finite %s (%g)", s.Key(), f.name, f.v)
		}
	}
	if s.MFLUPS <= 0 {
		return fmt.Errorf("monitor: sample for %s has non-positive MFLUPS", s.Key())
	}
	if s.Predicted < 0 || s.MemS < 0 || s.CommS < 0 {
		return fmt.Errorf("monitor: sample for %s has a negative prediction", s.Key())
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
	var out []Sample
	for _, s := range st.samples {
		if s.Workload == workload && s.System == system && s.Ranks == ranks {
			out = append(out, s)
		}
	}
	return out
}

// Correction is what the store has learned about one (system, model)
// from its Tier 1 samples. Terms is the per-term fit of the measured
// time on the prediction's memory term (B1) and communication remainder
// (B2); its N is 0 when the fit could not be used, and Scalar, the
// geometric mean of measured/predicted MFLUPS, scales the whole
// prediction instead (1 with no samples: an uncalibrated model is used
// as-is).
type Correction struct {
	Terms  fit.Pair
	Scalar float64
}

// correction assembles a Correction from n samples' sum of log ratios
// and their per-term fit, which it keeps only with both coefficients
// finite and positive.
func correction(logSum float64, n int, terms fit.Pair, err error) Correction {
	c := Correction{Scalar: 1}
	if n > 0 {
		c.Scalar = math.Exp(logSum / float64(n))
	}
	if err == nil && positive(terms.B1) && positive(terms.B2) {
		c.Terms = terms
	}
	return c
}

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// refining returns the Tier 1 samples of a system and model.
func (st *Store) refining(system, model string) []Sample {
	var out []Sample
	for _, s := range st.samples {
		if s.refines() && s.System == system && s.Model == model {
			out = append(out, s)
		}
	}
	return out
}

// Correction fits the model's two terms to a system's Tier 1 samples
// with fit.PairLSQ. Both of the paper's models "overpredicted ... by a
// consistent amount in all cases", but not by one factor: the memory
// term misses the kernel overhead, the communication terms their own
// share, so each term earns its own coefficient. Fewer than three
// samples with terms, collinear ones (repeated runs of one cell) or a
// coefficient that is not positive leave the scalar correction.
func (st *Store) Correction(system, model string) Correction {
	samples := st.refining(system, model)
	var logSum float64
	var mem, comm, ones []float64
	for _, s := range samples {
		logSum += math.Log(s.MFLUPS / s.Predicted)
		if x1, x2, ok := s.row(); ok {
			mem, comm, ones = append(mem, x1), append(comm, x2), append(ones, 1)
		}
	}
	terms, err := fit.PairLSQ(mem, comm, ones)
	return correction(logSum, len(samples), terms, err)
}

// Apply corrects a prediction: the memory time scales by Terms.B1 and
// every communication term by Terms.B2 — or, without a usable fit, every
// time by 1/Scalar — and the throughput and both edges of its confidence
// band by the ratio of raw to corrected time.
func (c Correction) Apply(p perfmodel.Prediction) perfmodel.Prediction {
	mem, comm, speed := 1/c.Scalar, 1/c.Scalar, c.Scalar
	if c.Terms.N > 0 {
		t := p.MemS*c.Terms.B1 + (p.SecondsPerStep-p.MemS)*c.Terms.B2
		// A prediction without terms, or a fit too extreme for this
		// one, keeps the scalar.
		if s := p.SecondsPerStep / t; positive(p.MFLUPS * s) {
			mem, comm, speed = c.Terms.B1, c.Terms.B2, s
		}
	}
	out := p
	out.SecondsPerStep /= speed
	out.MemS *= mem
	out.IntraS *= comm
	out.InterS *= comm
	out.CPUGPUs *= comm
	out.CommBandwidthS *= comm
	out.CommLatencyS *= comm
	out.MFLUPS *= speed
	out.Confidence.LoMFLUPS *= speed
	out.Confidence.HiMFLUPS *= speed
	return out
}

// Refine applies the current correction of the prediction's system and
// model to it.
func (st *Store) Refine(p perfmodel.Prediction) perfmodel.Prediction {
	return st.Correction(p.System, p.Model).Apply(p)
}

// MAPE reports the mean absolute percentage error of a system's Tier 1
// samples before and after correction — the feedback metric that decides
// whether a model term earns its place (the paper's "system of adding and
// checking"). Each sample is scored leave-one-out, by the correction the
// store's other samples give, so the figure is what the correction does
// for a run it has not seen; downdating one set of sums keeps it O(n).
func (st *Store) MAPE(system, model string) (before, after float64, n int) {
	samples := st.refining(system, model)
	if len(samples) == 0 {
		return 0, 0, 0
	}
	var all fit.PairSums
	var logSum float64
	for _, s := range samples {
		logSum += math.Log(s.MFLUPS / s.Predicted)
		if x1, x2, ok := s.row(); ok {
			all.Add(x1, x2, 1, 1)
		}
	}
	for _, s := range samples {
		rest := all
		if x1, x2, ok := s.row(); ok {
			rest.Add(x1, x2, 1, -1)
		}
		terms, err := rest.Solve()
		c := correction(logSum-math.Log(s.MFLUPS/s.Predicted), len(samples)-1, terms, err)
		before += math.Abs(s.Predicted-s.MFLUPS) / s.MFLUPS
		// A sample without terms has no time, so only the scalar applies.
		p := perfmodel.Prediction{MFLUPS: s.Predicted, MemS: s.MemS, SecondsPerStep: s.MemS + s.CommS}
		after += math.Abs(c.Apply(p).MFLUPS-s.MFLUPS) / s.MFLUPS
	}
	return before / float64(len(samples)), after / float64(len(samples)), len(samples)
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
