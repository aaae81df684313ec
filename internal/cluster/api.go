package cluster

import "repro/internal/httpedge"

// This file is the router's own JSON vocabulary. The /v1 planning
// endpoints proxied to replicas keep internal/serve's shapes untouched;
// these types cover only what the router adds: topology introspection,
// drain control, and the aggregate health view.

// ReplicaStatus is one replica's row in the topology report.
type ReplicaStatus struct {
	Name     string `json:"name"`
	BaseURL  string `json:"base_url,omitempty"`
	State    string `json:"state"`
	Failures int    `json:"failures,omitempty"`
}

// TopologyResponse is the GET /v1/cluster body: the fleet, the ring
// membership, and each healthy replica's share of a sampled keyspace —
// the operator's view of balance.
type TopologyResponse struct {
	Replicas    []ReplicaStatus    `json:"replicas"`
	RingMembers []string           `json:"ring_members"`
	Vnodes      int                `json:"vnodes"`
	Seed        int64              `json:"seed"`
	KeyShare    map[string]float64 `json:"key_share,omitempty"`
}

// DrainResponse acknowledges a drain/undrain transition.
type DrainResponse struct {
	Replica string `json:"replica"`
	State   string `json:"state"`
}

// RouterHealthResponse is the router's GET /v1/healthz body. Status is
// "ok" while at least one replica is healthy, "degraded" otherwise —
// the router itself is up either way, but a degraded cluster cannot
// place new shard keys.
type RouterHealthResponse struct {
	Status   string          `json:"status"`
	Healthy  int             `json:"healthy"`
	Total    int             `json:"total"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// ErrorResponse is the uniform error body, shared with serve.
type ErrorResponse = httpedge.ErrorResponse

// TelemetrySourceStatus is one scrape target's row in the aggregated
// telemetry report: whether its snapshot merged, and why not if not.
type TelemetrySourceStatus struct {
	Name    string  `json:"name"`
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
	UptimeS float64 `json:"uptime_s,omitempty"`
}

// REDSummary is the fleet-wide Rate/Errors/Duration view derived from
// the merged serve metrics: request and error throughput over the last
// scrape interval, and latency quantiles from the merged histogram
// buckets (computed at read time from raw buckets, never merged as
// quantiles).
type REDSummary struct {
	// Requests and Errors are cumulative fleet totals.
	Requests float64 `json:"requests"`
	Errors   float64 `json:"errors"`

	// IntervalS is the window the rates cover (time since the
	// previous scrape, or since startup for the first one).
	IntervalS     float64 `json:"interval_s"`
	RatePerS      float64 `json:"rate_per_s"`
	ErrorRatePerS float64 `json:"error_rate_per_s"`

	// Latency quantiles of the merged fleet histogram, in seconds.
	P50S float64 `json:"p50_s"`
	P90S float64 `json:"p90_s"`
	P99S float64 `json:"p99_s"`
}
