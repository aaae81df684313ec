package cluster

import (
	"context"
	"time"

	"repro/internal/obs"
)

// Config shapes a Cluster router. Zero fields take the documented
// defaults.
type Config struct {
	// Replicas is the fleet the router fronts. Required, non-empty.
	Replicas []Replica

	// VirtualNodes per replica on the ring (default DefaultVnodes).
	VirtualNodes int

	// Seed perturbs ring hashing, span IDs, and Retry-After jitter.
	// Two routers sharing a seed and replica list agree on every key's
	// placement.
	Seed int64

	// DefaultSeed must match the replicas' serve default calibration
	// seed: the router substitutes it when a request omits seed so the
	// shard key equals the key the replica will actually cache under.
	DefaultSeed int64

	// TenantRate is each tenant's sustained requests/second on planning
	// endpoints (token-bucket refill); <= 0 disables per-tenant quotas.
	// TenantBurst is the bucket depth (default 1 when rate is set).
	TenantRate  float64
	TenantBurst float64

	// MaxInflight caps concurrently forwarded planning requests; excess
	// requests shed with 429 (default 256, <0 disables).
	MaxInflight int

	// MaxBodyBytes caps request bodies at the router (default 1 MiB) —
	// the router reads bodies fully to derive shard keys.
	MaxBodyBytes int64

	// HealthInterval is the period of the background replica poll: each
	// tick GETs every replica's /v1/telemetry once, as health probe and
	// telemetry scrape together. 0 disables the loop (PollNow and GET
	// /v1/cluster/telemetry still poll on demand — the deterministic
	// path).
	HealthInterval time.Duration

	// HealthFailures is the consecutive-failure threshold that marks a
	// replica dead (default 2). Failed polls and failed forwards both
	// count toward it.
	HealthFailures int

	// HealthTimeout bounds one replica's poll (default 2s).
	HealthTimeout time.Duration

	// Registry and Tracer are the observability sinks; nil values get
	// private instances (the tracer seeded from Seed).
	Registry *obs.Registry
	Tracer   *obs.Tracer
}

// Cluster owns the router, the ring, and the replica poll over a
// fleet. It holds no planning state: replicas can join a freshly
// restarted router and every key routes identically.
type Cluster struct {
	ring   *Ring
	set    *replicaSet
	poller *poller
	router *Router

	// baseCtx bounds every poll the cluster issues; Close cancels it so
	// no poll outlives the cluster.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a Cluster and starts the background replica poll when
// configured. Callers must Close it.
func New(cfg Config) (*Cluster, error) {
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = DefaultVnodes
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.HealthFailures <= 0 {
		cfg.HealthFailures = 2
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(cfg.Seed)
	}
	ring := NewRing(cfg.Seed, cfg.VirtualNodes)
	set, err := newReplicaSet(cfg.Replicas, ring, reg)
	if err != nil {
		return nil, err
	}
	poll := newPoller(set, reg, cfg)
	// The fresh root is legitimate here: New is the top of the cluster's
	// lifecycle — no caller context exists to derive from.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	c := &Cluster{
		ring:       ring,
		set:        set,
		poller:     poll,
		router:     newRouter(cfg, ring, set, poll, reg, tracer),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
	}
	poll.start(baseCtx, cfg.HealthInterval)
	return c, nil
}

// Router returns the HTTP front end.
func (c *Cluster) Router() *Router { return c.router }

// Ring exposes the placement ring (read-mostly; health owns mutation).
func (c *Cluster) Ring() *Ring { return c.ring }

// PollNow runs one synchronous poll of every replica — the health
// verdicts and telemetry aggregate of one background tick — and returns
// the merged fleet view: the deterministic alternative to the loop. A
// sweep already in flight is joined, not repeated. After Close it issues no requests and returns the last published
// aggregate, so a shut-down cluster records no bogus failures.
func (c *Cluster) PollNow() *ClusterTelemetryResponse { return c.poller.poll(c.baseCtx) }

// Replicas reports the fleet's current states in configured order.
func (c *Cluster) Replicas() []ReplicaStatus { return c.set.snapshot() }

// Close cancels in-flight polls, stops the poll loop, and always
// returns nil (the error slot matches serve.Server.Close for callers
// shutting both down). Replica lifecycles belong to their owners — the
// router never shuts a replica down.
func (c *Cluster) Close() error {
	// Cancel before stop: an in-flight poll of a hung replica aborts
	// immediately instead of holding the loop (and us) until its
	// timeout.
	c.baseCancel()
	c.poller.stop()
	return nil
}
