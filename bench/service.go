package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// service is the client side of the three HTTP workloads: a target URL,
// the generated trace, the oracle, and the reference reply of every warm
// request (a warm reply is a pure function of its body, so the hot loop
// checks it with one bytes.Equal instead of decoding JSON).
type service struct {
	c      *child
	url    string
	client *http.Client
	o      *oracle
	tr     trace
	ref    [][]byte      // per tr.reqs index; nil for cold requests
	refCC  []cacheCounts // the cache fields of ref
	first  *tally        // the client that cuts the window into slices
}

func newService(c *child, url string, tr trace) (*service, error) {
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	// At most nproc connections: the load generator may not be wider than
	// the machine it shares with the system under test.
	tp := &http.Transport{MaxIdleConnsPerHost: c.nproc, MaxConnsPerHost: c.nproc}
	return &service{
		c: c, url: url, client: &http.Client{Transport: tp}, o: o, tr: tr,
		ref: make([][]byte, len(tr.reqs)), refCC: make([]cacheCounts, len(tr.reqs)),
	}, nil
}

// send posts one request and reads the whole reply into buf.
func (sv *service) send(r *request, tenant string, buf *bytes.Buffer) (status int, replica string, err error) {
	req, err := http.NewRequest(http.MethodPost, sv.url+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header.Get("X-Replica"), err
}

// warm sends every warm request twice: once to fill the caches, once more
// for the all-hits reference reply, which it checks against the model.
func (sv *service) warm() error {
	var buf bytes.Buffer
	for pass := 0; pass < 2; pass++ {
		for i := range sv.tr.reqs {
			r := &sv.tr.reqs[i]
			if r.Cold {
				continue
			}
			status, _, err := sv.send(r, "", &buf)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", r.Body, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %s", r.Body, status, buf.Bytes())
			}
			if pass == 0 {
				continue
			}
			sv.ref[i] = bytes.Clone(buf.Bytes())
			cc, err := sv.o.check(*r, sv.ref[i])
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", r.Body, err)
			}
			if cc.misses+cc.coalesced != 0 {
				return fmt.Errorf("warm-up %s: second reply still reports %+v", r.Body, cc)
			}
			sv.refCC[i] = cc
		}
	}
	return nil
}

// digest fingerprints the warm reference replies and each client's first
// reply when that is a cold one (every repetition gets that far).
// Repetitions of one seed must agree on it: the same key gives the same
// bytes every time.
func (sv *service) digest(tallies []tally) string {
	h := sha256.New()
	for _, b := range sv.ref {
		h.Write(b)
	}
	for i := range tallies {
		if colds := tallies[i].colds; len(colds) > 0 && colds[0].idx == sv.tr.order[i] {
			h.Write(colds[0].body)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// coldReply is a cold request's reply, kept for checking after the window.
type coldReply struct {
	idx  int // of the request in the trace
	op   int // of its record in the client's tally
	body []byte
}

// opRec is one completed op: when it ended, since the window opened, how
// long it took in milliseconds, and whether the reply was right.
type opRec struct {
	end time.Duration
	lat float64
	ok  bool
}

// tally is one client's record of a window.
type tally struct {
	ops       []opRec
	lags      []float64 // ms, open loop only
	attempted int
	ok        int
	cache     cacheCounts
	replicas  map[string]int
	colds     []coldReply
	buf       bytes.Buffer
}

// op sends the k-th request of the stream and scores the reply. from is
// the instant latency counts from: the send for a closed loop, the due
// time for an open one. The first client also cuts the window into slices.
func (sv *service) op(t *tally, k int, from time.Time) {
	idx := sv.tr.order[k%len(sv.tr.order)]
	r := &sv.tr.reqs[idx]
	tenant := ""
	if sv.tr.tenants != nil {
		tenant = sv.tr.tenants[k%len(sv.tr.order)]
	}
	h := sv.c.rec.begin(sv.c.root, r.span)
	t.attempted++
	status, replica, err := sv.send(r, tenant, &t.buf)
	h.end()
	now := time.Now()
	rec := opRec{end: now.Sub(sv.c.t0), lat: ms(now.Sub(from))}
	if replica != "" {
		t.replicas[replica]++
	}
	switch {
	case err != nil:
		sv.c.fail("request %d: %v", k, err)
	case status != http.StatusOK:
		sv.c.fail("request %d: status %d: %s", k, status, t.buf.Bytes())
	case r.Cold:
		t.colds = append(t.colds, coldReply{idx, len(t.ops), bytes.Clone(t.buf.Bytes())})
		rec.ok = true // provisionally; checkColds takes it back if the model disagrees
	case !bytes.Equal(t.buf.Bytes(), sv.ref[idx]):
		sv.c.fail("request %d: warm reply differs from its reference: %s", k, t.buf.Bytes())
	default:
		rec.ok = true
		t.cache.hits += sv.refCC[idx].hits
	}
	if rec.ok {
		t.ok++
	}
	t.ops = append(t.ops, rec)
	if t == sv.first && rec.end-sv.c.laps[len(sv.c.laps)-1].at >= sv.c.wl.slice {
		sv.c.lap()
	}
}

// closedLoop runs nproc clients, each sending its next request when the
// previous reply has arrived, until the window closes. Client g takes
// sends g, g+nproc, ...; a stream with cold requests is never reused.
func (sv *service) closedLoop(reuse bool) []tally {
	n := sv.c.nproc
	tallies := make([]tally, n)
	sv.first = &tallies[0]
	deadline := sv.c.t0.Add(sv.c.window)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int, t *tally) {
			defer wg.Done()
			t.replicas = make(map[string]int)
			for k := g; (reuse || k < len(sv.tr.order)) && time.Now().Before(deadline); k += n {
				sv.op(t, k, time.Now())
			}
		}(g, &tallies[g])
	}
	wg.Wait()
	return tallies
}

// openLoop sends the whole stream on a fixed timetable: request k is due
// k/rate after the start whatever the replies do. nproc senders each own
// an interleaved share of the timetable. Latency counts from the due time,
// so a reply that stalls a sender is charged for the requests queued
// behind it. Lag is how late the generator itself ran: the send's delay
// past the later of its due time and the moment its sender became free.
func (sv *service) openLoop(rate float64) []tally {
	n := sv.c.nproc
	tallies := make([]tally, n)
	sv.first = &tallies[0]
	start := sv.c.t0
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int, t *tally) {
			defer wg.Done()
			t.replicas = make(map[string]int)
			free := start
			for k := g; k < len(sv.tr.order); k += n {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ready := due
				if free.After(ready) {
					ready = free
				}
				t.lags = append(t.lags, ms(time.Since(ready)))
				sv.op(t, k, due)
				free = time.Now()
			}
		}(g, &tallies[g])
	}
	wg.Wait()
	return tallies
}

// checkColds verifies the cold replies against the model after the window
// has closed, so the oracle's own calibrations are not timed. A cold
// request must have missed: its seed had never been seen.
func (sv *service) checkColds(tallies []tally) {
	for i := range tallies {
		t := &tallies[i]
		for _, cr := range t.colds {
			cc, err := sv.o.check(sv.tr.reqs[cr.idx], cr.body)
			if err == nil && cc.misses != 1 {
				err = fmt.Errorf("never-seen seed reported %+v", cc)
			}
			if err != nil {
				t.ok--
				t.ops[cr.op].ok = false
				sv.c.fail("cold request %s: %v", sv.tr.reqs[cr.idx].Body, err)
				continue
			}
			t.cache.misses += cc.misses
			t.cache.hits += cc.hits
			t.cache.coalesced += cc.coalesced
		}
	}
}

// score folds the clients' tallies into the repetition's result.
func (sv *service) score(tallies []tally) (replicas map[string]int) {
	var ops []opRec
	var lags []float64
	var attempted, ok int
	var cache cacheCounts
	replicas = make(map[string]int)
	for i := range tallies {
		t := &tallies[i]
		ops, lags = append(ops, t.ops...), append(lags, t.lags...)
		attempted, ok = attempted+t.attempted, ok+t.ok
		cache.hits, cache.misses, cache.coalesced = cache.hits+t.cache.hits, cache.misses+t.cache.misses, cache.coalesced+t.cache.coalesced
		for name, n := range t.replicas {
			replicas[name] += n
		}
	}
	slices, lats := sv.c.slices(ops)
	sv.c.finish(attempted, ok, slices, lats)
	sv.c.res.Digest = sv.digest(tallies)
	sort.Float64s(lags)
	lag := quantile(lags, 0.99)
	sv.c.extra("gen_lag_p99_ms", lag)
	if sv.c.rec != nil {
		sv.c.layer("bench.gen_lag_p99_ms", lag)
		if lookups := cache.hits + cache.misses + cache.coalesced; lookups > 0 {
			sv.c.layer("serve.cache_hit_frac", float64(cache.hits)/float64(lookups))
		}
		sv.c.layer("serve.coalesced_total", float64(cache.coalesced))
	}
	return replicas
}

// slices scores each slice of the window on the correct ops that ended in
// it, and returns all their latencies as well. A slice cut short by the end
// of the window is left out, unless it is the only one.
func (c *child) slices(ops []opRec) (out []sliceStat, all []float64) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	at := 0
	for i := 1; i < len(c.laps); i++ {
		from, to := c.laps[i-1], c.laps[i]
		var lats []float64
		for ; at < len(ops) && ops[at].end <= to.at; at++ {
			if ops[at].ok {
				lats = append(lats, ops[at].lat)
			}
		}
		all = append(all, lats...)
		if len(lats) == 0 || (to.at-from.at < c.wl.slice/2 && len(out) > 0) {
			continue
		}
		sort.Float64s(lats)
		out = append(out, sliceStat{
			throughput: float64(len(lats)) / (to.at - from.at).Seconds(),
			p50:        quantile(lats, 0.50),
			tail:       quantile(lats, c.wl.tailPct/100),
			cpuPerOp:   cpuSince(from, to, len(lats)),
		})
	}
	return out, all
}

// scrape sums the named counters of a /v1/metrics?format=json snapshot.
func scrape(client *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := client.Get(base + "/v1/metrics?format=json")
	if err != nil {
		return nil, err
	}
	var snap []obs.Metric
	err = json.NewDecoder(resp.Body).Decode(&snap)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, m := range snap {
		for _, name := range names {
			if m.Name == name {
				out[name] += m.Value
			}
		}
	}
	return out, nil
}

// shedTotal reads one server's serve_shed_total.
func shedTotal(client *http.Client, base string) (float64, error) {
	m, err := scrape(client, base, "serve_shed_total")
	return m["serve_shed_total"], err
}

// singleServer stands up one in-process serve.Server behind a loopback
// listener.
func singleServer() (*serve.Server, *httptest.Server, error) {
	srv, err := serve.New(serve.Config{DefaultSeed: serverSeed})
	if err != nil {
		return nil, nil, err
	}
	return srv, httptest.NewServer(srv.Handler()), nil
}

func runPredictWarm(c *child) error {
	srv, ts, err := singleServer()
	if err != nil {
		return err
	}
	defer ts.Close()
	sv, err := newService(c, ts.URL, warmTrace(c.seed, 1<<16))
	if err != nil {
		return err
	}
	if err := sv.warm(); err != nil {
		return err
	}
	c.begin()
	tallies := sv.closedLoop(true)
	c.end()
	sv.score(tallies)
	if c.rec != nil {
		shed, err := shedTotal(sv.client, ts.URL)
		if err != nil {
			return err
		}
		c.layer("serve.shed_total", shed)
		if err := hitLadder(sv, srv); err != nil {
			return err
		}
	}
	return srv.Close(context.Background())
}

func runPredictCold(c *child) error {
	srv, ts, err := singleServer()
	if err != nil {
		return err
	}
	defer ts.Close()
	// 4096 never-seen seeds outlast any window at a fill's pace.
	tr := coldTrace(c.seed, 4096)
	sv, err := newService(c, ts.URL, tr)
	if err != nil {
		return err
	}
	// Warm-up proper: build the oracle's shapes, and let the server's lazy
	// start-up (table load, first connection) finish on one throwaway fill.
	for _, w := range coldCycle {
		if _, err := sv.o.shape(w); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	throwaway := tr.reqs[len(tr.reqs)-1]
	if status, _, err := sv.send(&throwaway, "", &buf); err != nil || status != http.StatusOK {
		return fmt.Errorf("warm-up fill: status %d, %v", status, err)
	}
	c.begin()
	tallies := sv.closedLoop(false)
	c.end()
	sv.checkColds(tallies)
	sv.score(tallies)
	if c.rec != nil {
		shed, err := shedTotal(sv.client, ts.URL)
		if err != nil {
			return err
		}
		c.layer("serve.shed_total", shed)
		if err := fillLadder(sv); err != nil {
			return err
		}
	}
	return srv.Close(context.Background())
}

// replicaCount is cluster_mixed's fleet size.
const replicaCount = 4

func runClusterMixed(c *child) error {
	var servers []*serve.Server
	replicas := make([]cluster.Replica, replicaCount)
	for i := range replicas {
		srv, err := serve.New(serve.Config{DefaultSeed: serverSeed})
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		name := fmt.Sprintf("r%d", i)
		replicas[i] = cluster.Replica{Name: name, BaseURL: "http://" + name, Transport: cluster.NewHandlerTransport(srv.Handler())}
	}
	// The quota is generous so the token bucket runs on every request but
	// never denies one.
	cl, err := cluster.New(cluster.Config{
		Replicas: replicas, Seed: serverSeed, DefaultSeed: serverSeed,
		TenantRate: 1e6, TenantBurst: 1e6,
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(cl.Router().Handler())
	defer ts.Close()
	sv, err := newService(c, ts.URL, mixedTrace(c.seed, int(openLoopRPS*c.window.Seconds())))
	if err != nil {
		return err
	}
	if err := sv.warm(); err != nil {
		return err
	}
	if _, err := sv.o.shape(serve.WorkloadSpec{Geometry: "cylinder", Scale: 5}); err != nil {
		return err
	}
	c.begin()
	tallies := sv.openLoop(openLoopRPS)
	c.end()
	sv.checkColds(tallies)
	perReplica := sv.score(tallies)
	// An open loop's rate over a slice is the schedule's, give or take a
	// burst of catching up; over the window it shows whether the system
	// kept up.
	c.res.Metrics["throughput_ops_s"] = float64(c.res.OK) / c.elapsed.Seconds()
	// Shard placement is a pure function of the seed, so the digest covers
	// it too.
	names := make([]string, 0, len(perReplica))
	for name := range perReplica {
		names = append(names, name)
	}
	sort.Strings(names)
	lo, hi := c.res.Attempted, 0
	for _, name := range names {
		c.res.Digest += fmt.Sprintf(" %s=%d", name, perReplica[name])
		lo, hi = min(lo, perReplica[name]), max(hi, perReplica[name])
	}
	if len(names) != replicaCount {
		c.fail("replies came from %d replicas, want %d", len(names), replicaCount)
	}
	if c.rec != nil {
		c.layer("cluster.shard_spread", float64(hi)/float64(max(lo, 1)))
		rt, err := scrape(sv.client, ts.URL, "cluster_retry_total", "cluster_admission_denied_total")
		if err != nil {
			return err
		}
		c.layer("cluster.retry_total", rt["cluster_retry_total"])
		c.layer("cluster.denied_total", rt["cluster_admission_denied_total"])
		shed := 0.0
		for _, r := range replicas {
			n, err := shedTotal(&http.Client{Transport: r.Transport}, r.BaseURL)
			if err != nil {
				return err
			}
			shed += n
		}
		c.layer("serve.shed_total", shed)
		if err := clusterLadder(sv, cl, replicas, servers); err != nil {
			return err
		}
	}
	if err := cl.Close(); err != nil {
		return err
	}
	for _, srv := range servers {
		if err := srv.Close(context.Background()); err != nil {
			return err
		}
	}
	return nil
}
