// Command serve runs the planning service: the paper's decision
// procedure — characterize instance types, tune the model per anatomy,
// predict and recommend — exposed as a versioned HTTP JSON API.
//
// Endpoints (see internal/serve):
//
//	POST /v1/predict        single + batch model predictions
//	POST /v1/plan           cost-bounded instance recommendation
//	POST /v1/campaigns      async campaign submission
//	GET  /v1/campaigns/{id} campaign status
//	GET  /v1/healthz        liveness
//	GET  /v1/metrics        metrics (Prometheus text, ?format=json)
//
// SIGINT/SIGTERM start a graceful shutdown: the listener stops, in-flight
// requests finish, async campaigns drain (interrupted at their next clean
// point past -drain), and the process exits non-zero.
//
// -debug-addr exposes net/http/pprof on a separate listener (never on
// the API mux); -trace exports the request span log as JSONL at
// shutdown, with -trace-seed giving each replica distinct span IDs so
// multi-process exports merge cleanly (cmd/trace -merge).
//
// Usage:
//
//	serve -addr :8080
//	curl -s localhost:8080/v1/healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	gpu := flag.Bool("gpu", false, "include the GPU instance type in the catalog")
	samples := flag.Int("samples", 5, "microbenchmark samples per characterization point")
	seed := flag.Int64("seed", 1, "default calibration seed for requests that omit one")
	cacheEntries := flag.Int("cache", 64, "calibration cache capacity (entries)")
	maxInflight := flag.Int("max-inflight", 64, "concurrent planning requests before shedding 429s")
	maxCampaigns := flag.Int("max-campaigns", 4, "concurrent async campaigns before shedding 429s")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline ceiling")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before campaigns are interrupted")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (off when empty; never on -addr)")
	traceFile := flag.String("trace", "", "write the request span log as JSONL here at shutdown")
	traceSeed := flag.Int64("trace-seed", 0, "span-ID seed (default -seed; give each replica its own for merged traces)")
	flag.Parse()

	systems := machine.Catalog()
	if *gpu {
		systems = machine.FullCatalog()
	}
	if *traceSeed == 0 {
		*traceSeed = *seed
	}
	tracer := obs.NewTracer(*traceSeed)
	srv, err := serve.New(serve.Config{
		Systems:        systems,
		Samples:        *samples,
		DefaultSeed:    *seed,
		CacheEntries:   *cacheEntries,
		MaxInflight:    *maxInflight,
		MaxCampaigns:   *maxCampaigns,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Tracer:         tracer,
	})
	fatal(err)
	startDebugServer(*debugAddr)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("serve: listening on %s (%d instance types, cache %d, inflight %d)\n",
		*addr, len(systems), *cacheEntries, *maxInflight)

	select {
	case err := <-errc:
		// Listener died on its own (port in use, ...): nothing to drain.
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "serve: signal received; draining")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "serve: http shutdown:", err)
	}
	if err := srv.Close(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	writeTrace(*traceFile, tracer)
	// Clean shutdown on a signal still exits non-zero: the service was
	// asked to die, it did not finish its job.
	fmt.Fprintln(os.Stderr, "serve: shutdown complete")
	os.Exit(1)
}

// startDebugServer exposes the pprof mux on its own listener; the main
// API mux never carries the debug endpoints. The listener lives until
// process exit: profiling must stay reachable through shutdown.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	hs := &http.Server{Addr: addr, Handler: serve.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve: debug listener:", err)
		}
	}()
	fmt.Printf("serve: pprof on %s (debug only; not on the API mux)\n", addr)
}

// writeTrace exports the tracer's span log as JSONL for cmd/trace.
func writeTrace(path string, tracer *obs.Tracer) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve: trace export:", err)
		return
	}
	err = obs.WriteJSONL(f, tracer.Spans())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve: trace export:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "serve: trace written to %s\n", path)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
