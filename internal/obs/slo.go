package obs

import (
	"fmt"
	"strconv"
	"sync"
)

// SLO is one declarative service-level objective evaluated over a
// sliding window of the aggregated telemetry stream. Two kinds are
// supported:
//
//   - availability: at least TargetAvailability of requests in the
//     window succeed (LatencyBoundS == 0);
//   - latency: at least LatencyQuantile of requests in the window
//     complete within LatencyBoundS (LatencyBoundS > 0).
//
// Both reduce to a bad-fraction against an error budget: for a target
// t, the allowed bad fraction is 1-t, and the burn rate is
// badFraction/(1-t) — burn 1.0 exactly spends the budget, burn ≥
// BurnThreshold fires the alert. The latency objective is evaluated on
// histogram buckets, so "within LatencyBoundS" means "in a bucket
// whose upper bound is ≤ LatencyBoundS" — exact to bucket resolution.
type SLO struct {
	Name string `json:"name"`

	// TargetAvailability is the availability objective in (0,1), e.g.
	// 0.999. Used when LatencyBoundS == 0.
	TargetAvailability float64 `json:"target_availability,omitempty"`

	// LatencyQuantile is the fraction of requests (0,1) that a latency
	// objective requires to finish within the bound.
	LatencyQuantile float64 `json:"latency_quantile,omitempty"`

	// LatencyBoundS is that bound in seconds; > 0 makes this a latency
	// objective.
	LatencyBoundS float64 `json:"latency_bound_s,omitempty"`

	// WindowS is the sliding-window length in seconds.
	WindowS float64 `json:"window_s"`

	// BurnThreshold is the burn rate at which the alert fires;
	// 0 means 1 (alert exactly when the error budget burns faster
	// than it accrues).
	BurnThreshold float64 `json:"burn_threshold,omitempty"`
}

// IsLatency reports whether the objective is a latency SLO.
func (s SLO) IsLatency() bool { return s.LatencyBoundS > 0 }

// target returns the objective's good-fraction target.
func (s SLO) target() float64 {
	if s.IsLatency() {
		return s.LatencyQuantile
	}
	return s.TargetAvailability
}

// burnThreshold returns the effective firing threshold.
func (s SLO) burnThreshold() float64 {
	if s.BurnThreshold > 0 {
		return s.BurnThreshold
	}
	return 1
}

// DefaultSLOs returns the stock objectives the cluster router tracks:
// three-nines availability and a 250 ms p99, both over 5-minute windows.
func DefaultSLOs() []SLO {
	return []SLO{
		{Name: "availability", TargetAvailability: 0.999, WindowS: 300},
		{Name: "latency-p99", LatencyQuantile: 0.99, LatencyBoundS: 0.25, WindowS: 300},
	}
}

// SLOObs is one cumulative observation of the request stream at a
// point in time: totals since process start, not deltas. The tracker
// differences consecutive observations itself, which makes feeding it
// idempotent snapshots (scrapes) safe.
type SLOObs struct {
	AtS    float64 // observation time, seconds on the tracker's clock
	Total  float64 // cumulative requests
	Errors float64 // cumulative failed requests

	// Latency histogram state, cumulative (bounds + one overflow slot).
	LatBounds []float64
	LatCounts []uint64
	LatCount  uint64
}

// RequestObs derives a cumulative SLOObs from a metric snapshot: the
// request counter (summed across label sets; a numeric `code` label ≥
// 500, or a non-numeric one, counts as an error) and the latency
// histogram (merged across label sets sharing the first-seen bucket
// layout). This is the bridge from serve's RED instruments to the SLO
// stream.
func RequestObs(atS float64, metrics []Metric, requestsMetric, latencyMetric string) SLOObs {
	o := SLOObs{AtS: atS}
	for _, m := range metrics {
		switch {
		case m.Name == requestsMetric && m.Type == "counter":
			o.Total += m.Value
			code := m.Label("code")
			if code != "" {
				n, err := strconv.Atoi(code)
				if err != nil || n >= 500 {
					o.Errors += m.Value
				}
			}
		case m.Name == latencyMetric && m.Type == "histogram":
			if o.LatBounds == nil {
				o.LatBounds = append([]float64(nil), m.BucketLE...)
				o.LatCounts = make([]uint64, len(m.Counts))
			}
			if len(m.Counts) != len(o.LatCounts) {
				continue // foreign layout; availability math still holds
			}
			for i, c := range m.Counts {
				o.LatCounts[i] += c
			}
			o.LatCount += m.Count
		}
	}
	return o
}

// SLOAlert is one deterministic alert transition. State is "firing"
// when the burn rate crosses the threshold and "resolved" when it
// drops back; each crossing emits exactly one event.
type SLOAlert struct {
	SLO         string  `json:"slo"`
	State       string  `json:"state"` // "firing" or "resolved"
	AtS         float64 `json:"at_s"`
	BurnRate    float64 `json:"burn_rate"`
	BadFraction float64 `json:"bad_fraction"`
}

// SLOStatus is the current evaluation of one objective, for dashboards
// and fleet reports.
type SLOStatus struct {
	SLO         SLO     `json:"slo"`
	WindowTotal float64 `json:"window_total"`
	WindowBad   float64 `json:"window_bad"`
	BadFraction float64 `json:"bad_fraction"`
	BurnRate    float64 `json:"burn_rate"`
	Firing      bool    `json:"firing"`
}

// SLOTracker evaluates a set of objectives over a sliding window of
// cumulative observations and emits exactly-once alert transitions.
// Deterministic by construction: same observation sequence, same
// alerts. Safe for concurrent use.
type SLOTracker struct {
	mu      sync.Mutex
	slos    []SLO
	hist    []SLOObs // ascending AtS
	firing  map[string]bool
	alerts  []SLOAlert
	maxWinS float64
}

// NewSLOTracker builds a tracker over the given objectives. An empty
// or nil slice yields a tracker that observes without ever alerting.
func NewSLOTracker(slos []SLO) *SLOTracker {
	t := &SLOTracker{
		slos:   append([]SLO(nil), slos...),
		firing: make(map[string]bool),
	}
	for _, s := range t.slos {
		if s.WindowS > t.maxWinS {
			t.maxWinS = s.WindowS
		}
	}
	return t
}

// Observe feeds one cumulative observation and returns the alert
// transitions it caused (usually none). Observations must arrive in
// non-decreasing AtS order; an out-of-order sample is dropped.
func (t *SLOTracker) Observe(o SLOObs) []SLOAlert {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.hist); n > 0 && o.AtS < t.hist[n-1].AtS {
		return nil
	}
	t.hist = append(t.hist, o)
	t.prune(o.AtS)

	var out []SLOAlert
	for _, s := range t.slos {
		st := t.evaluate(s, o.AtS)
		// Fire only on windows that saw traffic: an empty window has
		// no evidence either way and must not flap the alert.
		if st.WindowTotal <= 0 {
			continue
		}
		was := t.firing[s.Name]
		if !was && st.BurnRate >= s.burnThreshold() {
			t.firing[s.Name] = true
			a := SLOAlert{SLO: s.Name, State: "firing", AtS: o.AtS, BurnRate: st.BurnRate, BadFraction: st.BadFraction}
			t.alerts = append(t.alerts, a)
			out = append(out, a)
		} else if was && st.BurnRate < s.burnThreshold() {
			t.firing[s.Name] = false
			a := SLOAlert{SLO: s.Name, State: "resolved", AtS: o.AtS, BurnRate: st.BurnRate, BadFraction: st.BadFraction}
			t.alerts = append(t.alerts, a)
			out = append(out, a)
		}
	}
	return out
}

// prune drops history older than the widest window, keeping the newest
// sample at or before the window start — it is the baseline the next
// evaluation differences against.
func (t *SLOTracker) prune(nowS float64) {
	cutoff := nowS - t.maxWinS
	keep := 0
	for keep < len(t.hist)-1 && t.hist[keep+1].AtS <= cutoff {
		keep++
	}
	if keep > 0 {
		t.hist = append(t.hist[:0], t.hist[keep:]...)
	}
}

// evaluate computes one objective's window state at time nowS. Caller
// holds t.mu.
func (t *SLOTracker) evaluate(s SLO, nowS float64) SLOStatus {
	st := SLOStatus{SLO: s, Firing: t.firing[s.Name]}
	if len(t.hist) == 0 {
		return st
	}
	cur := t.hist[len(t.hist)-1]

	// Baseline: the newest sample at or before the window start. If
	// the window reaches past recorded history, difference against the
	// zero origin (cumulative counters start at zero).
	start := nowS - s.WindowS
	var base SLOObs
	for i := len(t.hist) - 1; i >= 0; i-- {
		if t.hist[i].AtS <= start {
			base = t.hist[i]
			break
		}
	}

	var total, bad float64
	if s.IsLatency() {
		total = float64(cur.LatCount) - float64(base.LatCount)
		good := latGood(cur, s.LatencyBoundS)
		if base.LatCounts != nil {
			good -= latGood(base, s.LatencyBoundS)
		}
		bad = total - good
	} else {
		total = cur.Total - base.Total
		bad = cur.Errors - base.Errors
	}
	if total < 0 || bad < 0 { // counter reset upstream; skip the window
		return st
	}
	st.WindowTotal = total
	st.WindowBad = bad
	if total > 0 {
		st.BadFraction = bad / total
	}
	allowed := 1 - s.target()
	if allowed > 0 && total > 0 {
		st.BurnRate = st.BadFraction / allowed
	}
	return st
}

// latGood counts cumulative observations at or under the bound: the
// buckets whose upper bound is ≤ boundS.
func latGood(o SLOObs, boundS float64) float64 {
	var good uint64
	for i, b := range o.LatBounds {
		if b > boundS {
			break
		}
		good += o.LatCounts[i]
	}
	return float64(good)
}

// Status returns the current evaluation of every objective, in
// configuration order.
func (t *SLOTracker) Status() []SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var nowS float64
	if len(t.hist) > 0 {
		nowS = t.hist[len(t.hist)-1].AtS
	}
	out := make([]SLOStatus, len(t.slos))
	for i, s := range t.slos {
		out[i] = t.evaluate(s, nowS)
	}
	return out
}

// Alerts returns every alert transition so far, in emission order.
func (t *SLOTracker) Alerts() []SLOAlert {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SLOAlert(nil), t.alerts...)
}

// String renders an alert as a stable single line for logs and
// reports.
func (a SLOAlert) String() string {
	return fmt.Sprintf("slo %s %s at %.3fs (burn %.2f, bad %.4f)", a.SLO, a.State, a.AtS, a.BurnRate, a.BadFraction)
}
