package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// telemetryAggregator periodically scrapes every live replica's
// GET /v1/telemetry snapshot, folds the raw counter/bucket state into
// one fleet-wide metric view (obs.MergeMetrics), derives RED rates
// from consecutive scrapes, and feeds the aggregated request stream to
// the SLO tracker. It mirrors healthChecker's lifecycle: start/stop
// around an optional background loop, with scrape as the synchronous
// deterministic path tests and on-demand handlers drive directly.
//
// Locking discipline: all network I/O happens before the mutex is
// taken; the lock only guards the published snapshot and rate state.
type telemetryAggregator struct {
	set       *replicaSet
	reg       *obs.Registry // the router's own registry, merged as "router"
	timeout   time.Duration
	slos      *obs.SLOTracker
	startWall time.Time

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	last     *ClusterTelemetryResponse
	prevAtS  float64
	prevReq  float64
	prevErrs float64
}

// ClusterTelemetryResponse is the GET /v1/cluster/telemetry body: the
// merged fleet metrics plus the derived RED and SLO views.
type ClusterTelemetryResponse struct {
	AsOfS   float64                 `json:"as_of_s"`
	Sources []TelemetrySourceStatus `json:"sources"`
	Metrics []obs.Metric            `json:"metrics"`
	RED     REDSummary              `json:"red"`
	SLOs    []obs.SLOStatus         `json:"slos,omitempty"`
	Alerts  []obs.SLOAlert          `json:"alerts,omitempty"`
}

func newTelemetryAggregator(set *replicaSet, reg *obs.Registry, timeout time.Duration, slos []obs.SLO) *telemetryAggregator {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &telemetryAggregator{
		set:       set,
		reg:       reg,
		timeout:   timeout,
		slos:      obs.NewSLOTracker(slos),
		startWall: time.Now(),
	}
}

// simNow is the aggregator's timeline: seconds since router startup,
// the same clock the scrape intervals and SLO windows are measured on.
func (ta *telemetryAggregator) simNow() float64 { return time.Since(ta.startWall).Seconds() }

// start launches the scrape loop at interval; no-op when interval <= 0.
func (ta *telemetryAggregator) start(base context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(base)
	ta.cancel = cancel
	ta.done = make(chan struct{})
	go func() {
		defer close(ta.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				ta.scrape(ctx)
			}
		}
	}()
}

// stop halts the scrape loop and waits for it to exit.
func (ta *telemetryAggregator) stop() {
	if ta.cancel == nil {
		return
	}
	ta.cancel()
	<-ta.done
	ta.cancel = nil
}

// scrape performs one aggregation sweep and publishes the result. Dead
// replicas are skipped (their last state is gone with them); draining
// replicas still report — they are serving what they own. A replica
// whose snapshot fails to fetch, decode, or merge is recorded in
// Sources and excluded without poisoning the aggregate. Sources merge
// in sorted-name order, so the first snapshot carrying a histogram
// fixes its bucket layout and later deviants are the ones rejected —
// deterministic, if arbitrary; in practice every replica runs the same
// serve build and the layouts agree.
func (ta *telemetryAggregator) scrape(ctx context.Context) *ClusterTelemetryResponse {
	if ctx.Err() != nil {
		return ta.Last()
	}
	atS := ta.simNow()

	// Phase 1: fetch everything (network, no lock).
	type fetched struct {
		name string
		snap obs.TelemetrySnapshot
		err  error
	}
	var snaps []fetched
	for _, name := range ta.set.names() {
		state, ok := ta.set.state(name)
		if !ok || state == StateDead {
			continue
		}
		snap, err := ta.fetch(ctx, name)
		snaps = append(snaps, fetched{name: name, snap: snap, err: err})
	}

	// Phase 2: merge. The router's own registry joins as one more
	// source so the page is the whole data plane, not just replicas.
	var merged []obs.Metric
	var sources []TelemetrySourceStatus
	for _, f := range snaps {
		if f.err != nil {
			sources = append(sources, TelemetrySourceStatus{Name: f.name, Error: f.err.Error()})
			continue
		}
		next, err := obs.MergeMetrics(merged, f.snap.Metrics)
		if err != nil {
			sources = append(sources, TelemetrySourceStatus{Name: f.name, Error: err.Error()})
			continue
		}
		merged = next
		sources = append(sources, TelemetrySourceStatus{Name: f.name, OK: true, UptimeS: f.snap.UptimeS})
	}
	if next, err := obs.MergeMetrics(merged, ta.reg.Snapshot()); err != nil {
		sources = append(sources, TelemetrySourceStatus{Name: "router", Error: err.Error()})
	} else {
		merged = next
		sources = append(sources, TelemetrySourceStatus{Name: "router", OK: true, UptimeS: atS})
	}

	// Phase 3: derive RED + SLO state and publish under the lock.
	o := obs.RequestObs(atS, merged, "serve_requests_total", "serve_latency_seconds")

	ta.mu.Lock()
	defer ta.mu.Unlock()
	red := REDSummary{Requests: o.Total, Errors: o.Errors, IntervalS: atS - ta.prevAtS}
	if red.IntervalS > 0 {
		red.RatePerS = (o.Total - ta.prevReq) / red.IntervalS
		red.ErrorRatePerS = (o.Errors - ta.prevErrs) / red.IntervalS
	}
	// Quantiles come from the label-set-merged latency buckets that
	// RequestObs already accumulated — raw counts, quantiled here once.
	lat := obs.Metric{Type: "histogram", BucketLE: o.LatBounds, Counts: o.LatCounts, Count: o.LatCount}
	if lat.Count > 0 {
		red.P50S = lat.Quantile(0.50)
		red.P90S = lat.Quantile(0.90)
		red.P99S = lat.Quantile(0.99)
	}
	ta.prevAtS, ta.prevReq, ta.prevErrs = atS, o.Total, o.Errors

	ta.slos.Observe(o)
	resp := &ClusterTelemetryResponse{
		AsOfS:   atS,
		Sources: sources,
		Metrics: merged,
		RED:     red,
		SLOs:    ta.slos.Status(),
		Alerts:  ta.slos.Alerts(),
	}
	ta.last = resp
	return resp
}

// fetch pulls one replica's telemetry snapshot through its transport.
func (ta *telemetryAggregator) fetch(ctx context.Context, name string) (obs.TelemetrySnapshot, error) {
	var snap obs.TelemetrySnapshot
	rep, ok := ta.set.get(name)
	if !ok {
		return snap, fmt.Errorf("replica %q not configured", name)
	}
	ctx, cancel := context.WithTimeout(ctx, ta.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.BaseURL+"/v1/telemetry", nil)
	if err != nil {
		return snap, err
	}
	resp, err := rep.Transport.RoundTrip(req)
	if err != nil {
		return snap, err
	}
	defer func() {
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("telemetry scrape: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("telemetry scrape: %w", err)
	}
	if snap.Source == "" {
		snap.Source = name
	}
	return snap, nil
}

// Last returns the most recently published aggregate, or nil before
// the first scrape.
func (ta *telemetryAggregator) Last() *ClusterTelemetryResponse {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	return ta.last
}
