// Command cluster runs the sharded planning cluster's router
// (internal/cluster) in front of N cmd/serve replicas, with /v1/predict
// and /v1/plan consistent-hash-sharded by calibration key so each
// replica's cache owns a disjoint key range.
//
// The fleet is the required -join list: the base URLs of running
// cmd/serve processes, named r0…rN-1 in the order given. Each replica
// is started on its own and owns its lifecycle; its -seed must equal
// the router's -calib-seed.
//
// Every -health-interval the router GETs each replica's /v1/telemetry
// once. The reply is both the health probe (-health-failures strikes,
// counted with failed forwards, mark a replica dead; one 200 revives
// it) and the fleet telemetry scrape.
//
// Router endpoints: the /v1 planning API (forwarded), GET /v1/cluster
// (topology + key shares), GET /v1/cluster/telemetry (merged fleet
// metrics + RED + SLO burn state; ?format=prom, ?refresh=1), POST
// /v1/cluster/drain?replica=NAME (&undrain=1), GET /v1/healthz,
// GET /v1/metrics.
//
// Every forwarded request carries a traceparent header, so replica
// spans nest under the router's forward spans. -trace exports the
// router's retained traces as JSONL at shutdown (the open ones, the most
// recent completed ones and the tail set of failed and slow requests
// that obs.Tracer keeps, not every request routed); with each replica's
// own cmd/serve -trace export, cmd/trace -merge -format=tree stitches
// them into one tree per request. Every process needs its own
// -trace-seed so span IDs stay distinct. -debug-addr exposes
// net/http/pprof and GET /debug/traces (the same retained traces, live)
// on a separate listener.
//
// SIGINT/SIGTERM drain the router; the replicas keep running.
//
// Usage:
//
//	serve -addr 127.0.0.1:8091 -trace-seed 2 &
//	serve -addr 127.0.0.1:8092 -trace-seed 3 &
//	cluster -addr :8090 -join http://127.0.0.1:8091,http://127.0.0.1:8092
//	curl -s localhost:8090/v1/cluster
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8090", "router listen address")
	join := flag.String("join", "", "comma-separated base URLs of the running cmd/serve replicas (required)")
	vnodes := flag.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per replica on the ring")
	seed := flag.Int64("seed", 1, "ring/jitter/span seed")
	calibSeed := flag.Int64("calib-seed", 1, "default calibration seed (must match the replicas' -seed)")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant sustained requests/second (0 = no quotas)")
	tenantBurst := flag.Float64("tenant-burst", 16, "per-tenant token-bucket depth")
	maxInflight := flag.Int("max-inflight", 256, "concurrently forwarded planning requests before shedding 429s")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "replica poll period: health probe and telemetry scrape (0 disables; GET /v1/cluster/telemetry then polls on demand)")
	healthFails := flag.Int("health-failures", 2, "consecutive failures marking a replica dead")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof and /debug/traces (off when empty; never on -addr)")
	traceFile := flag.String("trace", "", "write the router's retained traces (recent, failed and slow requests; not every request) as JSONL here at shutdown")
	traceSeed := flag.Int64("trace-seed", 0, "span-ID seed (default -seed; every replica needs a different one)")
	flag.Parse()

	replicas := joinReplicas(*join)
	if len(replicas) == 0 {
		fmt.Fprintln(os.Stderr, "cluster: -join is required: the base URLs of running cmd/serve replicas")
		flag.Usage()
		os.Exit(2)
	}
	if *traceSeed == 0 {
		*traceSeed = *seed
	}
	routerTracer := obs.NewTracer(*traceSeed)
	c, err := cluster.New(cluster.Config{
		Replicas:       replicas,
		VirtualNodes:   *vnodes,
		Seed:           *seed,
		DefaultSeed:    *calibSeed,
		TenantRate:     *tenantRPS,
		TenantBurst:    *tenantBurst,
		MaxInflight:    *maxInflight,
		HealthInterval: *healthEvery,
		HealthFailures: *healthFails,
		Tracer:         routerTracer,
	})
	fatal(err)
	startDebugServer(*debugAddr, routerTracer)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           c.Router().Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("cluster: router on %s fronting %d replicas (vnodes %d, seed %d)\n",
		*addr, len(replicas), *vnodes, *seed)
	for _, r := range c.Replicas() {
		fmt.Printf("cluster:   %-8s %-10s %s\n", r.Name, r.State, r.BaseURL)
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "cluster: signal received; draining")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cluster: http shutdown:", err)
	}
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cluster:", err)
	}
	writeTrace(*traceFile, routerTracer)
	// Like cmd/serve: a clean signal-driven shutdown still exits
	// non-zero — the service was asked to die mid-job.
	fmt.Fprintln(os.Stderr, "cluster: shutdown complete")
	os.Exit(1)
}

// joinReplicas fronts running serve processes at the given
// comma-separated base URLs, named r0…rN-1 in the order given.
func joinReplicas(csv string) []cluster.Replica {
	var replicas []cluster.Replica
	for _, u := range strings.Split(csv, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		replicas = append(replicas, cluster.Replica{
			Name:      fmt.Sprintf("r%d", len(replicas)),
			BaseURL:   u,
			Transport: newFleetTransport(),
		})
	}
	return replicas
}

// newFleetTransport is one keepalive pool per replica, so a slow or
// dead replica cannot starve the others' connections.
func newFleetTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: 30 * time.Second}
}

// startDebugServer exposes the debug mux (pprof and the router's
// retained traces) on its own listener; the router mux never carries
// the debug endpoints. The listener lives
// until process exit: profiling must stay reachable through shutdown.
func startDebugServer(addr string, tracer *obs.Tracer) {
	if addr == "" {
		return
	}
	hs := &http.Server{Addr: addr, Handler: serve.DebugHandler(tracer), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cluster: debug listener:", err)
		}
	}()
	fmt.Printf("cluster: pprof and /debug/traces on %s (debug only; not on the router mux)\n", addr)
}

// writeTrace exports a tracer's retained spans as JSONL for cmd/trace.
func writeTrace(path string, tracer *obs.Tracer) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster: trace export:", err)
		return
	}
	err = obs.WriteJSONL(f, tracer.Spans())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster: trace export:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "cluster: trace written to %s\n", path)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}
