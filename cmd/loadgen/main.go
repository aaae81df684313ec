// Command loadgen benchmarks the planning service: it drives
// POST /v1/predict for a fixed duration, then reports throughput,
// latency quantiles, and cache hit rates as JSON.
//
// Two load models:
//
//   - Closed loop (default): -workers request loops, each issuing the
//     next request as soon as the previous one returns. Measures peak
//     sustainable throughput.
//   - Open loop (-rate R): arrivals are scheduled at a fixed offered
//     rate R/s regardless of how fast the server answers, and latency
//     is measured from the *scheduled* arrival time, so queueing delay
//     counts — the closed-loop model silently hides it (coordinated
//     omission).
//
// Two topologies:
//
//   - Single server (default): one serve.Server (in-process unless
//     -url points at a running instance); writes BENCH_serve.json.
//   - Cluster (-cluster N): N in-process replicas behind the
//     internal/cluster router, sharded by calibration key, benchmarked
//     against an in-run single-replica baseline on the same workload;
//     writes BENCH_cluster.json with aggregate and per-replica numbers.
//
// The cluster benchmark's workload is -keys distinct calibration keys —
// key i asks seed i+1 on the workload at scale + i/keys, so a miss pays
// for both of the service's caches, a lattice and a characterization —
// with per-replica cache capacity -cache chosen so the keyset overflows
// one replica's LRUs but fits the fleet's: the single baseline thrashes
// (every request pays a calibration) while the sharded fleet stays warm.
// That is the cluster's whole bet — N disjoint warm caches instead of N
// copies of the same one — so the speedup holds even on a single CPU.
//
//	loadgen -duration 5s -workers 16 -out BENCH_serve.json
//	loadgen -cluster 4 -duration 5s -out BENCH_cluster.json
//	loadgen -rate 2000 -duration 5s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

type benchReport struct {
	Endpoint   string         `json:"endpoint"`
	Workers    int            `json:"workers"`
	OfferedRPS float64        `json:"offered_rps,omitempty"`
	Keys       int            `json:"keys,omitempty"`
	DurationS  float64        `json:"duration_s"`
	Requests   int            `json:"requests"`
	Throughput float64        `json:"rps"`
	P50MS      float64        `json:"p50_ms"`
	P95MS      float64        `json:"p95_ms"`
	P99MS      float64        `json:"p99_ms"`
	MeanMS     float64        `json:"mean_ms"`
	Status     map[string]int `json:"status"`

	CacheHits      int     `json:"cache_hits"`
	CacheMisses    int     `json:"cache_misses"`
	CacheCoalesced int     `json:"cache_coalesced"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	Shed           int     `json:"shed"`
	Errors         int     `json:"errors"`

	SlowestTraces []exemplar `json:"slowest_traces,omitempty"`
}

// exemplar ties a tail-latency observation back to its distributed
// trace: the X-Trace-Id of one of the window's slowest requests, so a
// bad quantile in a report links directly to the span tree that
// produced it (cmd/trace -merge -format=tree, grep the trace ID).
type exemplar struct {
	TraceID   string  `json:"trace_id"`
	LatencyMS float64 `json:"latency_ms"`
	Status    int     `json:"status"`
	Replica   string  `json:"replica,omitempty"`
}

// windowStats is one measured window (cluster arm or baseline arm of
// the cluster benchmark).
type windowStats struct {
	DurationS    float64        `json:"duration_s"`
	Requests     int            `json:"requests"`
	Throughput   float64        `json:"rps"`
	P50MS        float64        `json:"p50_ms"`
	P95MS        float64        `json:"p95_ms"`
	P99MS        float64        `json:"p99_ms"`
	MeanMS       float64        `json:"mean_ms"`
	Status       map[string]int `json:"status"`
	Errors       int            `json:"errors"`
	CacheHitRate float64        `json:"cache_hit_rate"`

	SlowestTraces []exemplar `json:"slowest_traces,omitempty"`
}

type replicaStats struct {
	Name           string  `json:"name"`
	Requests       int     `json:"requests"`
	CacheHits      int     `json:"cache_hits"`
	CacheMisses    int     `json:"cache_misses"`
	CacheCoalesced int     `json:"cache_coalesced"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
}

type clusterReport struct {
	Mode            string         `json:"mode"`
	Endpoint        string         `json:"endpoint"`
	Replicas        int            `json:"replicas"`
	CachePerReplica int            `json:"cache_entries_per_replica"`
	Keys            int            `json:"keys"`
	Workers         int            `json:"workers"`
	OfferedRPS      float64        `json:"offered_rps,omitempty"`
	Cluster         windowStats    `json:"cluster"`
	PerReplica      []replicaStats `json:"per_replica"`
	RouterRetries   int            `json:"router_retries"`
	RouterDenied    int            `json:"router_admission_denied"`
	Baseline        windowStats    `json:"single_replica_baseline"`
	Speedup         float64        `json:"speedup_vs_single"`
}

type workerStats struct {
	lats     []float64 // seconds
	status   map[int]int
	replicas map[string]int // X-Replica counts (cluster mode)
	errors   int
	slow     []exemplar // this worker's slowest requests, descending
}

// runSpec parameterizes one measured window over one target.
type runSpec struct {
	client    *http.Client
	url       string   // predict endpoint
	bodies    [][]byte // request bodies, cycled per request
	workers   int
	duration  time.Duration
	rate      float64 // offered arrivals/s; 0 = closed loop
	exemplars int     // slowest-trace exemplars to keep (0 disables)
}

type runResult struct {
	lats     []float64
	status   map[string]int
	replicas map[string]int
	errors   int
	elapsed  float64
	slow     []exemplar
}

func main() {
	baseURL := flag.String("url", "", "serve base URL (empty: run an in-process server)")
	duration := flag.Duration("duration", 5*time.Second, "measurement window")
	workers := flag.Int("workers", 16, "concurrent request loops (closed loop only)")
	rate := flag.Float64("rate", 0, "open-loop offered arrival rate per second (0: closed loop)")
	geometry := flag.String("geometry", "cylinder", "workload geometry")
	scale := flag.Float64("scale", 6, "workload scale")
	system := flag.String("system", "CSP-2", "instance type to predict on")
	ranks := flag.Int("ranks", 32, "rank count to predict at")
	keys := flag.Int("keys", 0, "distinct calibration seeds in the workload (0: 1, or 3NC/4 in cluster mode)")
	clusterN := flag.Int("cluster", 0, "benchmark N sharded replicas behind the router vs a single-replica baseline")
	cacheEntries := flag.Int("cache", 8, "per-replica calibration cache capacity (cluster mode)")
	samples := flag.Int("samples", 1, "replica microbenchmark samples (cluster mode)")
	out := flag.String("out", "", "report path (default BENCH_serve.json / BENCH_cluster.json; - for stdout only)")
	exemplars := flag.Int("exemplars", 5, "trace-ID exemplars of the slowest requests kept per window (0 disables)")
	flag.Parse()

	if *clusterN > 0 {
		k := *keys
		if k <= 0 {
			// Default keyset: overflow one replica's cache (K > C) while
			// leaving every replica's owned share under its capacity even
			// at ~2x ring skew (mean K/N = C/2, so max owned ~C).
			k = *clusterN * *cacheEntries / 2
			if k <= *cacheEntries {
				k = *cacheEntries + 1
			}
		}
		path := *out
		if path == "" {
			path = "BENCH_cluster.json"
		}
		runClusterBench(*clusterN, *cacheEntries, *samples, k,
			bodiesFor(*geometry, *scale, *system, *ranks, k),
			*workers, *duration, *rate, *exemplars, path)
		return
	}

	k := *keys
	if k <= 0 {
		k = 1
	}
	path := *out
	if path == "" {
		path = "BENCH_serve.json"
	}
	runServeBench(*baseURL, bodiesFor(*geometry, *scale, *system, *ranks, k),
		*workers, *duration, *rate, *exemplars, path)
}

// runServeBench is the single-server benchmark (BENCH_serve.json).
func runServeBench(baseURL string, bodies [][]byte, workers int, duration time.Duration, rate float64, exemplars int, out string) {
	target := baseURL
	if target == "" {
		srv, err := serve.New(serve.Config{MaxInflight: 4 * workers})
		fatal(err)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		target = ts.URL
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * workers}}
	spec := runSpec{
		client:    client,
		url:       target + "/v1/predict",
		bodies:    bodies,
		workers:   workers,
		duration:  duration,
		rate:      rate,
		exemplars: exemplars,
	}

	// Warmup: pay the calibration misses outside the measured window.
	fatal(warmKeys(spec))
	res := runWindow(spec)

	w := summarize(res)
	report := benchReport{
		Endpoint:      "/v1/predict",
		Workers:       workers,
		OfferedRPS:    rate,
		DurationS:     w.DurationS,
		Requests:      w.Requests,
		Throughput:    w.Throughput,
		P50MS:         w.P50MS,
		P95MS:         w.P95MS,
		P99MS:         w.P99MS,
		MeanMS:        w.MeanMS,
		Status:        w.Status,
		Errors:        w.Errors,
		SlowestTraces: w.SlowestTraces,
	}
	if len(bodies) > 1 {
		report.Keys = len(bodies)
	}
	fatal(scrapeCache(client, target, &report))
	writeReport(report, out)
}

// runClusterBench benchmarks N sharded replicas behind the router
// against a single-replica baseline on the same keyset, and writes the
// BENCH_cluster.json artifact.
func runClusterBench(n, cacheEntries, samples, keys int, bodies [][]byte, workers int, duration time.Duration, rate float64, exemplars int, out string) {
	const calibSeed = 1
	newReplica := func() *serve.Server {
		srv, err := serve.New(serve.Config{
			Samples:      samples,
			DefaultSeed:  calibSeed,
			CacheEntries: cacheEntries,
			MaxInflight:  4 * workers,
		})
		fatal(err)
		return srv
	}

	// Baseline arm: one replica, same cache capacity, same workload.
	// The keyset overflows its LRU, so its "warmup" pass cannot stick —
	// the measured window pays a calibration per request by design.
	fmt.Fprintf(os.Stderr, "loadgen: baseline arm (1 replica, cache %d, %d keys)\n", cacheEntries, keys)
	base := newReplica()
	bts := httptest.NewServer(base.Handler())
	defer bts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * workers}}
	baseSpec := runSpec{
		client:    client,
		url:       bts.URL + "/v1/predict",
		bodies:    bodies,
		workers:   workers,
		duration:  duration,
		rate:      rate,
		exemplars: exemplars,
	}
	fatal(warmKeys(baseSpec))
	baseWin := summarize(runWindow(baseSpec))
	bh, bm, bc, _, err := scrapeCounters(client, bts.URL)
	fatal(err)
	baseWin.CacheHitRate = hitRate(bh, bm, bc)

	// Cluster arm: N replicas behind the router, each with a private
	// registry so per-replica hit rates are separable.
	fmt.Fprintf(os.Stderr, "loadgen: cluster arm (%d replicas, cache %d each, %d keys)\n", n, cacheEntries, keys)
	transports := make([]*cluster.HandlerTransport, n)
	replicas := make([]cluster.Replica, n)
	for i := range replicas {
		name := fmt.Sprintf("r%d", i)
		transports[i] = cluster.NewHandlerTransport(newReplica().Handler())
		replicas[i] = cluster.Replica{
			Name:      name,
			BaseURL:   "http://" + name,
			Transport: transports[i],
		}
	}
	c, err := cluster.New(cluster.Config{
		Replicas:    replicas,
		Seed:        1,
		DefaultSeed: calibSeed,
		MaxInflight: 4 * workers,
	})
	fatal(err)
	defer c.Close()
	ts := httptest.NewServer(c.Router().Handler())
	defer ts.Close()
	clusterSpec := runSpec{
		client:    client,
		url:       ts.URL + "/v1/predict",
		bodies:    bodies,
		workers:   workers,
		duration:  duration,
		rate:      rate,
		exemplars: exemplars,
	}
	fatal(warmKeys(clusterSpec))
	res := runWindow(clusterSpec)
	clusterWin := summarize(res)

	perReplica := make([]replicaStats, n)
	var hits, misses, coalesced int
	for i, r := range replicas {
		rc := &http.Client{Transport: transports[i]}
		h, m, co, _, err := scrapeCounters(rc, r.BaseURL)
		fatal(err)
		hits, misses, coalesced = hits+h, misses+m, coalesced+co
		perReplica[i] = replicaStats{
			Name:           r.Name,
			Requests:       res.replicas[r.Name],
			CacheHits:      h,
			CacheMisses:    m,
			CacheCoalesced: co,
			CacheHitRate:   hitRate(h, m, co),
		}
	}
	clusterWin.CacheHitRate = hitRate(hits, misses, coalesced)
	retries, denied, err := scrapeRouter(client, ts.URL)
	fatal(err)

	report := clusterReport{
		Mode:            "cluster",
		Endpoint:        "/v1/predict",
		Replicas:        n,
		CachePerReplica: cacheEntries,
		Keys:            keys,
		Workers:         workers,
		OfferedRPS:      rate,
		Cluster:         clusterWin,
		PerReplica:      perReplica,
		RouterRetries:   retries,
		RouterDenied:    denied,
		Baseline:        baseWin,
	}
	if baseWin.Throughput > 0 {
		report.Speedup = clusterWin.Throughput / baseWin.Throughput
	}
	writeReport(report, out)
}

// bodiesFor builds one predict body per calibration key. With a single
// key the seed field is omitted (server default); with several, key i
// asks seed i+1 at scale + i/keys, so it addresses its own dashboard
// entry and its own anatomy. Seeds alone would share one anatomy, and a
// miss would cost only the sub-millisecond characterization.
func bodiesFor(geometry string, scale float64, system string, ranks, keys int) [][]byte {
	bodies := make([][]byte, keys)
	for i := range bodies {
		workload := map[string]any{"geometry": geometry, "scale": scale}
		req := map[string]any{
			"workload": workload,
			"systems":  []string{system},
			"ranks":    []int{ranks},
		}
		if keys > 1 {
			req["seed"] = i + 1
			workload["scale"] = scale + float64(i)/float64(keys)
		}
		b, err := json.Marshal(req)
		fatal(err)
		bodies[i] = b
	}
	return bodies
}

// warmKeys posts every body once, sequentially, so the measured window
// starts with whatever warmth the target's cache can actually hold.
func warmKeys(spec runSpec) error {
	for i := range spec.bodies {
		code, _, _, err := post(spec, i)
		if err != nil {
			return fmt.Errorf("warmup key %d: %w", i, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("warmup key %d returned %d", i, code)
		}
	}
	return nil
}

// runWindow dispatches to the configured load model.
func runWindow(spec runSpec) runResult {
	if spec.rate > 0 {
		return runOpenLoop(spec)
	}
	return runClosedLoop(spec)
}

// runClosedLoop: each worker issues its next request as soon as the
// previous returns, cycling the key set from a per-worker offset.
func runClosedLoop(spec runSpec) runResult {
	stats := make([]workerStats, spec.workers)
	start := time.Now()
	deadline := start.Add(spec.duration)
	var wg sync.WaitGroup
	for w := 0; w < spec.workers; w++ {
		wg.Add(1)
		go func(w int, st *workerStats) {
			defer wg.Done()
			st.status = make(map[int]int)
			st.replicas = make(map[string]int)
			for i := w; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				code, replica, traceID, err := post(spec, i)
				if err != nil {
					st.errors++
					continue
				}
				lat := time.Since(t0).Seconds()
				st.lats = append(st.lats, lat)
				st.status[code]++
				if replica != "" {
					st.replicas[replica]++
				}
				st.slow = addExemplar(st.slow,
					exemplar{TraceID: traceID, LatencyMS: lat * 1e3, Status: code, Replica: replica},
					spec.exemplars)
			}
		}(w, &stats[w])
	}
	wg.Wait()
	return merge(stats, time.Since(start), spec.exemplars)
}

// runOpenLoop schedules arrivals at the offered rate on a fixed
// timetable and measures latency from each request's *scheduled* start,
// not its actual send, so time spent queued behind a slow server counts
// against the server (avoiding coordinated omission). One goroutine per
// in-flight arrival; -workers is ignored.
func runOpenLoop(spec runSpec) runResult {
	interval := time.Duration(float64(time.Second) / spec.rate)
	total := int(spec.rate * spec.duration.Seconds())
	if total < 1 {
		total = 1
	}
	agg := workerStats{status: make(map[int]int), replicas: make(map[string]int)}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < total; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			code, replica, traceID, err := post(spec, i)
			lat := time.Since(sched).Seconds()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				agg.errors++
				return
			}
			agg.lats = append(agg.lats, lat)
			agg.status[code]++
			if replica != "" {
				agg.replicas[replica]++
			}
			agg.slow = addExemplar(agg.slow,
				exemplar{TraceID: traceID, LatencyMS: lat * 1e3, Status: code, Replica: replica},
				spec.exemplars)
		}(i, sched)
	}
	wg.Wait()
	return merge([]workerStats{agg}, time.Since(start), spec.exemplars)
}

// post issues request i (cycling the key set) and reports the status
// code, the routing replica (X-Replica, set by the cluster router),
// and the distributed trace ID (X-Trace-Id, set by whichever tier
// rooted the trace).
func post(spec runSpec, i int) (code int, replica, traceID string, err error) {
	body := spec.bodies[i%len(spec.bodies)]
	resp, err := spec.client.Post(spec.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", "", err
	}
	if err := drainBody(resp); err != nil {
		return 0, "", "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Replica"), resp.Header.Get("X-Trace-Id"), nil
}

// addExemplar keeps list as the n slowest observations, descending by
// latency. n is small (default 5), so the insertion sort is fine.
func addExemplar(list []exemplar, e exemplar, n int) []exemplar {
	if n <= 0 || e.TraceID == "" {
		return list
	}
	if len(list) == n && e.LatencyMS <= list[n-1].LatencyMS {
		return list
	}
	list = append(list, e)
	sort.SliceStable(list, func(i, j int) bool { return list[i].LatencyMS > list[j].LatencyMS })
	if len(list) > n {
		list = list[:n]
	}
	return list
}

// merge folds per-worker stats into one result, keeping the nSlow
// slowest exemplars across all workers.
func merge(stats []workerStats, elapsed time.Duration, nSlow int) runResult {
	res := runResult{
		status:   make(map[string]int),
		replicas: make(map[string]int),
		elapsed:  elapsed.Seconds(),
	}
	for i := range stats {
		res.lats = append(res.lats, stats[i].lats...)
		for code, n := range stats[i].status {
			res.status[strconv.Itoa(code)] += n
		}
		for name, n := range stats[i].replicas {
			res.replicas[name] += n
		}
		res.errors += stats[i].errors
		for _, e := range stats[i].slow {
			res.slow = addExemplar(res.slow, e, nSlow)
		}
	}
	sort.Float64s(res.lats)
	return res
}

// summarize reduces a result to the reported window statistics.
func summarize(res runResult) windowStats {
	mean := 0.0
	for _, l := range res.lats {
		mean += l
	}
	if len(res.lats) > 0 {
		mean /= float64(len(res.lats))
	}
	return windowStats{
		DurationS:     res.elapsed,
		Requests:      len(res.lats),
		Throughput:    float64(len(res.lats)) / res.elapsed,
		P50MS:         quantile(res.lats, 0.50) * 1e3,
		P95MS:         quantile(res.lats, 0.95) * 1e3,
		P99MS:         quantile(res.lats, 0.99) * 1e3,
		MeanMS:        mean * 1e3,
		Status:        res.status,
		Errors:        res.errors,
		SlowestTraces: res.slow,
	}
}

// quantile reads the q-quantile from sorted latencies.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// drainBody consumes and closes a response body so the connection is
// reused by the keepalive pool.
func drainBody(resp *http.Response) error {
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		if cerr := resp.Body.Close(); cerr != nil {
			return cerr
		}
		return err
	}
	return resp.Body.Close()
}

// scrapeMetrics fetches GET <target>/v1/metrics?format=json.
func scrapeMetrics(client *http.Client, target string) ([]obs.Metric, error) {
	resp, err := client.Get(target + "/v1/metrics?format=json")
	if err != nil {
		return nil, err
	}
	var ms []obs.Metric
	derr := json.NewDecoder(resp.Body).Decode(&ms)
	if cerr := resp.Body.Close(); derr == nil {
		derr = cerr
	}
	return ms, derr
}

// scrapeCounters pulls a serve replica's cache and shed counters.
func scrapeCounters(client *http.Client, target string) (hits, misses, coalesced, shed int, err error) {
	ms, err := scrapeMetrics(client, target)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, m := range ms {
		switch m.Name {
		case "serve_cache_total":
			switch m.Label("result") {
			case "hit":
				hits = int(m.Value)
			case "miss":
				misses = int(m.Value)
			case "coalesced":
				coalesced = int(m.Value)
			}
		case "serve_shed_total":
			shed += int(m.Value)
		}
	}
	return hits, misses, coalesced, shed, nil
}

// scrapeRouter pulls the cluster router's retry and admission counters.
func scrapeRouter(client *http.Client, target string) (retries, denied int, err error) {
	ms, err := scrapeMetrics(client, target)
	if err != nil {
		return 0, 0, err
	}
	for _, m := range ms {
		switch m.Name {
		case "cluster_retry_total":
			retries += int(m.Value)
		case "cluster_admission_denied_total":
			denied += int(m.Value)
		}
	}
	return retries, denied, nil
}

// scrapeCache fills a single-server report's cache fields.
func scrapeCache(client *http.Client, target string, r *benchReport) error {
	hits, misses, coalesced, shed, err := scrapeCounters(client, target)
	if err != nil {
		return err
	}
	r.CacheHits, r.CacheMisses, r.CacheCoalesced, r.Shed = hits, misses, coalesced, shed
	r.CacheHitRate = hitRate(hits, misses, coalesced)
	return nil
}

func hitRate(hits, misses, coalesced int) float64 {
	if total := hits + misses + coalesced; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

// writeReport prints the report and writes it to path unless "-".
func writeReport(report any, path string) {
	enc, err := json.MarshalIndent(report, "", "  ")
	fatal(err)
	fmt.Println(string(enc))
	if path != "-" {
		fatal(os.WriteFile(path, append(enc, '\n'), 0o644))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
