package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// poller is the cluster's one poll of its replicas. Each sweep GETs
// every replica's /v1/telemetry once, and the reply serves twice:
//
//   - as the health probe: a transport error or a non-200 reply is a
//     strike toward the failure threshold, the same strike a failed
//     forward counts; a 200 clears the streak and revives a dead
//     replica. Draining replicas are polled but never killed or
//     revived — their state is an operator decision (replicaSet's
//     reportFailure/reportSuccess rule);
//   - as the replica's telemetry snapshot: the sweep folds the raw
//     counter/bucket state into one fleet-wide metric view
//     (obs.MergeMetrics), derives RED rates from consecutive sweeps,
//     and feeds the aggregated request stream to the SLO tracker. A 200
//     whose body will not merge is a failed sources row, not a strike:
//     the replica is up, only its snapshot is unusable.
//
// poll is the synchronous sweep tests and on-demand handlers drive
// directly; start/stop wrap it in the optional background loop.
//
// Locking discipline: all network I/O happens before the mutex is
// taken; the lock only guards the published snapshot and rate state.
type poller struct {
	set       *replicaSet
	reg       *obs.Registry // the router's own registry, merged as "router"
	threshold int
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

// newPoller takes cfg with New's defaults applied.
func newPoller(set *replicaSet, reg *obs.Registry, cfg Config) *poller {
	slos := cfg.SLOs
	if slos == nil {
		slos = obs.DefaultSLOs()
	}
	return &poller{
		set:       set,
		reg:       reg,
		threshold: cfg.HealthFailures,
		timeout:   cfg.HealthTimeout,
		slos:      obs.NewSLOTracker(slos),
		startWall: time.Now(),
	}
}

// simNow is the poller's timeline: seconds since router startup, the
// same clock the poll intervals and SLO windows are measured on.
func (p *poller) simNow() float64 { return time.Since(p.startWall).Seconds() }

// start launches the poll loop at interval; no-op when interval <= 0.
// The loop (and every request it issues) derives from base, so the
// owner's shutdown cancels it alongside stop.
func (p *poller) start(base context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(base)
	p.cancel = cancel
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				p.poll(ctx)
			}
		}
	}()
}

// stop halts the poll loop and waits for it to exit.
func (p *poller) stop() {
	if p.cancel == nil {
		return
	}
	p.cancel()
	<-p.done
	p.cancel = nil
}

// poll performs one sweep: every replica, in any state, is fetched once
// (dead ones included — that is the revival path), its health verdict
// recorded, and the result published. A cancelled ctx returns the last
// aggregate before any request fires, and a request cut short by ctx
// records no strike: a shut-down cluster or a departed client proves
// nothing about a replica. Every polled replica gets a Sources row; one
// whose snapshot fails to fetch, decode, or merge carries the error and
// is excluded without poisoning the aggregate. Sources merge in
// sorted-name order, so the first snapshot carrying a histogram fixes
// its bucket layout and later deviants are the ones rejected —
// deterministic, if arbitrary; in practice every replica runs the same
// serve build and the layouts agree.
func (p *poller) poll(ctx context.Context) *ClusterTelemetryResponse {
	if ctx.Err() != nil {
		return p.Last()
	}
	atS := p.simNow()

	// Phase 1: fetch everything and record health (network, no lock).
	type fetched struct {
		name string
		snap obs.TelemetrySnapshot
		err  error
	}
	var snaps []fetched
	for _, name := range p.set.names() {
		snap, up, err := p.fetch(ctx, name)
		if up {
			p.set.reportSuccess(name)
		} else if ctx.Err() == nil {
			p.set.reportFailure(name, p.threshold)
		}
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
	if next, err := obs.MergeMetrics(merged, p.reg.Snapshot()); err != nil {
		sources = append(sources, TelemetrySourceStatus{Name: "router", Error: err.Error()})
	} else {
		merged = next
		sources = append(sources, TelemetrySourceStatus{Name: "router", OK: true, UptimeS: atS})
	}

	// Phase 3: derive RED + SLO state and publish under the lock.
	o := obs.RequestObs(atS, merged, "serve_requests_total", "serve_latency_seconds")

	p.mu.Lock()
	defer p.mu.Unlock()
	red := REDSummary{Requests: o.Total, Errors: o.Errors, IntervalS: atS - p.prevAtS}
	if red.IntervalS > 0 {
		red.RatePerS = (o.Total - p.prevReq) / red.IntervalS
		red.ErrorRatePerS = (o.Errors - p.prevErrs) / red.IntervalS
	}
	// Quantiles come from the label-set-merged latency buckets that
	// RequestObs already accumulated — raw counts, quantiled here once.
	lat := obs.Metric{Type: "histogram", BucketLE: o.LatBounds, Counts: o.LatCounts, Count: o.LatCount}
	if lat.Count > 0 {
		red.P50S = lat.Quantile(0.50)
		red.P90S = lat.Quantile(0.90)
		red.P99S = lat.Quantile(0.99)
	}
	p.prevAtS, p.prevReq, p.prevErrs = atS, o.Total, o.Errors

	p.slos.Observe(o)
	resp := &ClusterTelemetryResponse{
		AsOfS:   atS,
		Sources: sources,
		Metrics: merged,
		RED:     red,
		SLOs:    p.slos.Status(),
		Alerts:  p.slos.Alerts(),
	}
	p.last = resp
	return resp
}

// fetch pulls one replica's telemetry snapshot through its transport.
// up is the health verdict — the replica answered 200 in time — and err
// is set whenever the reply yields no snapshot, so a 200 with an
// undecodable body is up with an error.
func (p *poller) fetch(ctx context.Context, name string) (snap obs.TelemetrySnapshot, up bool, err error) {
	rep, ok := p.set.get(name)
	if !ok {
		return snap, false, fmt.Errorf("replica %q not configured", name)
	}
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.BaseURL+"/v1/telemetry", nil)
	if err != nil {
		return snap, false, err
	}
	resp, err := rep.Transport.RoundTrip(req)
	if err != nil {
		return snap, false, err
	}
	defer func() {
		// Drain so a keepalive transport can reuse the connection; a
		// failed drain or close costs only that reuse.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return snap, false, fmt.Errorf("telemetry poll: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		// A body cut off by the poll's own deadline is a hung replica,
		// not a bad snapshot.
		return snap, ctx.Err() == nil, fmt.Errorf("telemetry poll: %w", err)
	}
	if snap.Source == "" {
		snap.Source = name
	}
	return snap, true, nil
}

// Last returns the most recently published aggregate, or nil before
// the first poll.
func (p *poller) Last() *ClusterTelemetryResponse {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}
