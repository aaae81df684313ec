// Command cluster runs the sharded planning cluster: a router/gateway
// (internal/cluster) in front of N serve.Server replicas, with
// /v1/predict and /v1/plan consistent-hash-sharded by calibration key
// so each replica's cache owns a disjoint key range.
//
// The fleet comes from one of three sources:
//
//	cluster -replicas 3              three in-process replicas (no sockets)
//	cluster -spawn 3                 three subprocess replicas (this same
//	                                 binary re-executed with -replica),
//	                                 killable independently of the router
//	cluster -join http://a,http://b  attach to already-running serve
//	                                 instances (e.g. cmd/serve processes)
//
// Router endpoints: the /v1 planning API (forwarded), GET /v1/cluster
// (topology + key shares), GET /v1/cluster/telemetry (merged fleet
// metrics + RED + SLO burn state; ?format=prom, ?refresh=1), POST
// /v1/cluster/drain?replica=NAME (&undrain=1), GET /v1/healthz,
// GET /v1/metrics.
//
// Every forwarded request carries a traceparent header, so replica
// spans nest under the router's forward spans. -trace and
// -replica-trace-dir export the span logs as JSONL at shutdown;
// cmd/trace -merge -format=tree stitches them into one tree per
// request. -debug-addr exposes net/http/pprof on a separate listener.
//
// SIGINT/SIGTERM drain the router, then (in -spawn mode) terminate the
// children.
//
// Usage:
//
//	cluster -addr :8090 -spawn 3
//	curl -s localhost:8090/v1/cluster
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	replicaMode := flag.Bool("replica", false, "run as a single replica (used by -spawn re-execution)")
	addr := flag.String("addr", ":8090", "listen address (router, or replica in -replica mode)")
	nInproc := flag.Int("replicas", 0, "in-process replica count (default 3 when no fleet source given)")
	nSpawn := flag.Int("spawn", 0, "subprocess replica count (re-executes this binary with -replica)")
	join := flag.String("join", "", "comma-separated base URLs of running serve replicas to front")
	basePort := flag.Int("replica-base-port", 18081, "first loopback port for -spawn replicas")

	vnodes := flag.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per replica on the ring")
	seed := flag.Int64("seed", 1, "ring/jitter/span seed")
	calibSeed := flag.Int64("calib-seed", 1, "default calibration seed (must match the replicas')")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant sustained requests/second (0 = no quotas)")
	tenantBurst := flag.Float64("tenant-burst", 16, "per-tenant token-bucket depth")
	maxInflight := flag.Int("max-inflight", 256, "concurrently forwarded planning requests before shedding 429s")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "replica health poll period (0 disables)")
	healthFails := flag.Int("health-failures", 2, "consecutive failures marking a replica dead")
	telemetryEvery := flag.Duration("telemetry-interval", 5*time.Second, "fleet telemetry scrape period (0 disables; GET /v1/cluster/telemetry?refresh=1 still works)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (off when empty; never on -addr)")
	traceFile := flag.String("trace", "", "write the span log as JSONL here at shutdown (router, or replica in -replica mode)")
	traceSeed := flag.Int64("trace-seed", 0, "span-ID seed (default -seed; -spawn replicas get -seed+1+i automatically)")
	replicaTraceDir := flag.String("replica-trace-dir", "", "directory for per-replica span JSONL exports (in-process and -spawn replicas)")

	samples := flag.Int("samples", 5, "replica microbenchmark samples (in-process and -spawn replicas)")
	cacheEntries := flag.Int("cache", 64, "replica calibration cache capacity (in-process and -spawn replicas)")
	flag.Parse()

	if *traceSeed == 0 {
		*traceSeed = *seed
	}
	if *replicaMode {
		runReplica(*addr, *samples, *cacheEntries, *calibSeed, *traceFile, *traceSeed)
		return
	}

	var (
		replicas       []cluster.Replica
		replicaTracers []*obs.Tracer // in-process replicas only; exported at shutdown
		children       []*exec.Cmd
		err            error
	)
	switch {
	case *join != "":
		replicas = joinReplicas(*join)
	case *nSpawn > 0:
		replicas, children, err = spawnReplicas(*nSpawn, *basePort, *samples, *cacheEntries, *calibSeed, *traceSeed, *replicaTraceDir)
		fatal(err)
	default:
		n := *nInproc
		if n <= 0 {
			n = 3
		}
		replicas, replicaTracers, err = inprocReplicas(n, *samples, *cacheEntries, *calibSeed, *traceSeed)
		fatal(err)
	}

	// The router's span seed must differ from every replica's: span IDs
	// derive from seed+sequence, and a merged trace needs them distinct.
	routerTracer := obs.NewTracer(*traceSeed)
	c, err := cluster.New(cluster.Config{
		Replicas:          replicas,
		VirtualNodes:      *vnodes,
		Seed:              *seed,
		DefaultSeed:       *calibSeed,
		TenantRate:        *tenantRPS,
		TenantBurst:       *tenantBurst,
		MaxInflight:       *maxInflight,
		HealthInterval:    *healthEvery,
		HealthFailures:    *healthFails,
		TelemetryInterval: *telemetryEvery,
		Tracer:            routerTracer,
	})
	fatal(err)
	startDebugServer(*debugAddr)

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
		reapChildren(children)
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
	reapChildren(children)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cluster:", err)
	}
	writeTrace(*traceFile, routerTracer)
	for i, tr := range replicaTracers {
		if *replicaTraceDir != "" {
			writeTrace(replicaTracePath(*replicaTraceDir, i), tr)
		}
	}
	// Like cmd/serve: a clean signal-driven shutdown still exits
	// non-zero — the service was asked to die mid-job.
	fmt.Fprintln(os.Stderr, "cluster: shutdown complete")
	os.Exit(1)
}

// runReplica is the -replica role: one serve.Server on addr, the unit
// -spawn mode multiplies. traceFile, when set, receives the replica's
// span log as JSONL at shutdown so cmd/trace -merge can stitch it back
// under the router's forward spans.
func runReplica(addr string, samples, cacheEntries int, calibSeed int64, traceFile string, traceSeed int64) {
	tracer := obs.NewTracer(traceSeed)
	srv, err := serve.New(serve.Config{
		Samples:      samples,
		DefaultSeed:  calibSeed,
		CacheEntries: cacheEntries,
		Tracer:       tracer,
	})
	fatal(err)
	hs := &http.Server{Addr: addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("cluster-replica: listening on %s\n", addr)
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cluster-replica: http shutdown:", err)
	}
	if err := srv.Close(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cluster-replica:", err)
	}
	writeTrace(traceFile, tracer)
	os.Exit(1)
}

// inprocReplicas builds n serve.Servers wired through in-process
// transports — zero sockets, the fastest single-host topology. Each
// replica's tracer is seeded baseTraceSeed+1+i: distinct from the
// router's and from each other's, so one merged trace never collides
// span IDs.
func inprocReplicas(n, samples, cacheEntries int, calibSeed, baseTraceSeed int64) ([]cluster.Replica, []*obs.Tracer, error) {
	replicas := make([]cluster.Replica, n)
	tracers := make([]*obs.Tracer, n)
	for i := range replicas {
		tracers[i] = obs.NewTracer(baseTraceSeed + 1 + int64(i))
		srv, err := serve.New(serve.Config{
			Samples:      samples,
			DefaultSeed:  calibSeed,
			CacheEntries: cacheEntries,
			Tracer:       tracers[i],
		})
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("r%d", i)
		replicas[i] = cluster.Replica{
			Name:      name,
			BaseURL:   "http://" + name,
			Transport: cluster.NewHandlerTransport(srv.Handler()),
		}
	}
	return replicas, tracers, nil
}

// spawnReplicas re-executes this binary n times with -replica on
// consecutive loopback ports and waits for each /v1/healthz. With a
// traceDir, each child exports its span log there under a distinct
// span seed (baseTraceSeed+1+i).
func spawnReplicas(n, basePort, samples, cacheEntries int, calibSeed, baseTraceSeed int64, traceDir string) ([]cluster.Replica, []*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	replicas := make([]cluster.Replica, n)
	children := make([]*exec.Cmd, n)
	for i := range replicas {
		port := basePort + i
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := []string{"-replica",
			"-addr", addr,
			"-samples", fmt.Sprint(samples),
			"-cache", fmt.Sprint(cacheEntries),
			"-calib-seed", fmt.Sprint(calibSeed),
			"-trace-seed", fmt.Sprint(baseTraceSeed + 1 + int64(i))}
		if traceDir != "" {
			args = append(args, "-trace", replicaTracePath(traceDir, i))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			reapChildren(children[:i])
			return nil, nil, fmt.Errorf("spawning replica %d: %w", i, err)
		}
		children[i] = cmd
		replicas[i] = cluster.Replica{
			Name:      fmt.Sprintf("r%d", i),
			BaseURL:   "http://" + addr,
			Transport: newFleetTransport(),
		}
	}
	for _, r := range replicas {
		if err := waitHealthy(r.BaseURL, 15*time.Second); err != nil {
			reapChildren(children)
			return nil, nil, err
		}
	}
	return replicas, children, nil
}

// joinReplicas fronts already-running serve processes at the given
// comma-separated base URLs.
func joinReplicas(csv string) []cluster.Replica {
	var replicas []cluster.Replica
	for i, u := range strings.Split(csv, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		replicas = append(replicas, cluster.Replica{
			Name:      fmt.Sprintf("r%d", i),
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

// waitHealthy polls a replica's /v1/healthz until it answers 200.
func waitHealthy(base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			werr := resp.Body.Close()
			if werr == nil && resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s never became healthy: %v", base, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// reapChildren terminates -spawn replicas: TERM, then a bounded wait.
func reapChildren(children []*exec.Cmd) {
	for _, cmd := range children {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			continue // already gone
		}
	}
	for _, cmd := range children {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(c *exec.Cmd) {
			_ = c.Wait() // a replica's exit status is advisory during shutdown
			close(done)
		}(cmd)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			if err := cmd.Process.Kill(); err == nil {
				<-done
			}
		}
	}
}

// replicaTracePath is the per-replica span export path shared by the
// in-process writer, the -spawn child flags, and the documentation.
func replicaTracePath(dir string, i int) string {
	return fmt.Sprintf("%s/r%d.jsonl", dir, i)
}

// startDebugServer exposes the pprof mux on its own listener; the
// router mux never carries the debug endpoints. The listener lives
// until process exit: profiling must stay reachable through shutdown.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	hs := &http.Server{Addr: addr, Handler: serve.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cluster: debug listener:", err)
		}
	}()
	fmt.Printf("cluster: pprof on %s (debug only; not on the router mux)\n", addr)
}

// writeTrace exports a tracer's span log as JSONL for cmd/trace.
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
