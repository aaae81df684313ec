package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

// The ladders of the service workloads. Each rung times one layer from
// outside, through its exported API, on inputs of the traced repetition;
// a rung's self time is its span minus the rung below.

// handlerCall returns a closure serving r through h into a recorder, and
// fails the repetition if the reply is not 200.
func handlerCall(c *child, h http.Handler, r *request) func() {
	return func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body)))
		if rec.Code != http.StatusOK {
			c.fail("ladder %s: status %d", r.Path, rec.Code)
		}
	}
}

// predictCall returns a closure evaluating the model for a single-system
// generalized request, straight on the oracle's Predictor.
func predictCall(c *child, o *oracle, p *serve.PredictRequest, tier string) (func(), error) {
	sh, err := o.shape(p.Workload)
	if err != nil {
		return nil, err
	}
	pred, err := o.predictor(p.Systems[0], serverSeed, tier)
	if err != nil {
		return nil, err
	}
	req := perfmodel.Request{Model: perfmodel.ModelGeneral, Summary: &sh.summary, Ranks: p.Ranks[0], Tier: tier}
	if characterized(tier) {
		req.General = sh.general
	}
	return func() {
		if _, err := pred.Predict(req); err != nil {
			c.fail("ladder predict %s: %v", tier, err)
		}
	}, nil
}

// hitLadder is predict_warm's: Predict, the serve handler without a
// socket, the same request over one keep-alive loopback connection, and
// the three obs instruments the middleware touches per request.
func hitLadder(sv *service, srv *serve.Server) error {
	c := sv.c
	r := &sv.tr.reqs[0] // cylinder@6 on CSP-1 at 32 ranks, warm
	predict, err := predictCall(c, sv.o, r.predict, perfmodel.Tier1Calibrated)
	if err != nil {
		return err
	}
	predictD, predictAllocs := measure(sz.rungBudget, predict)
	handlerD, handlerAllocs := measure(sz.rungBudget, handlerCall(c, srv.Handler(), r))
	one := *sv
	one.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	var buf bytes.Buffer
	loopbackD, _ := measure(sz.rungBudget, func() {
		if status, _, err := one.send(r, "", &buf); err != nil || status != http.StatusOK {
			c.fail("ladder loopback: status %d, %v", status, err)
		}
	})
	one.client.CloseIdleConnections()

	reg := obs.NewRegistry()
	counterD, _ := measure(sz.rungBudget, func() {
		reg.Counter("bench_requests_total", obs.L("endpoint", "/v1/predict"), obs.L("code", "200")).Inc()
	})
	buckets := obs.ExpBuckets(50e-6, 2, 25)
	histD, _ := measure(sz.rungBudget, func() {
		reg.Histogram("bench_latency_seconds", buckets, obs.L("endpoint", "/v1/predict")).Observe(1e-4)
	})
	tracer := obs.NewTracer(serverSeed)
	spanD, _ := measure(sz.rungBudget, func() {
		sp := tracer.Start("http /v1/predict", 0)
		sp.SetAttr("code", "200")
		sp.End(0)
	})

	c.layer("perfmodel.predict_ns", ns(predictD))
	c.layer("perfmodel.predict_allocs", predictAllocs)
	c.layer("serve.handler_ns", ns(handlerD))
	c.layer("serve.handler_allocs", handlerAllocs)
	c.layer("serve.overhead_ns", ns(handlerD-predictD))
	c.layer("serve.loopback_ns", ns(loopbackD))
	c.layer("serve.socket_ns", ns(loopbackD-handlerD))
	c.layer("obs.counter_inc_ns", ns(counterD))
	c.layer("obs.histogram_observe_ns", ns(histD))
	c.layer("obs.span_ns", ns(spanD))
	c.rec.replay(c.root, true, []rung{
		{"serve.loopback", loopbackD}, {"serve.handler", handlerD}, {"perfmodel.predict", predictD},
	})
	return nil
}

// clusterLadder is cluster_mixed's: the ring lookup, the owning replica's
// handler, the in-process transport to it, the router's handler on top,
// and the model work behind the plan and tier shares of the mix.
func clusterLadder(sv *service, cl *cluster.Cluster, replicas []cluster.Replica, servers []*serve.Server) error {
	c := sv.c
	r := &sv.tr.reqs[0] // cylinder@6 on CSP-1 at 32 ranks, tier1, warm
	var buf bytes.Buffer
	_, owner, err := sv.send(r, "", &buf)
	if err != nil {
		return err
	}
	at := -1
	for i := range replicas {
		if replicas[i].Name == owner {
			at = i
		}
	}
	if at < 0 {
		return fmt.Errorf("ladder: reply names replica %q, which is not in the fleet", owner)
	}
	p := r.predict
	key := fmt.Sprintf("%s|%s@%g|%d|%s", p.Systems[0], p.Workload.Geometry, p.Workload.Scale, serverSeed, perfmodel.Tier1Calibrated)
	ringD, _ := measure(sz.rungBudget, func() {
		if len(cl.Ring().Successors(key, 2)) == 0 {
			c.fail("ladder: ring has no successors for %s", key)
		}
	})
	serveD, _ := measure(sz.rungBudget, handlerCall(c, servers[at].Handler(), r))
	transportD, _ := measure(sz.rungBudget, func() {
		req, err := http.NewRequest(http.MethodPost, replicas[at].BaseURL+r.Path, bytes.NewReader(r.Body))
		if err != nil {
			c.fail("ladder transport: %v", err)
			return
		}
		resp, err := replicas[at].Transport.RoundTrip(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			c.fail("ladder transport: %v", err)
			return
		}
		if err := resp.Body.Close(); err != nil {
			c.fail("ladder transport: %v", err)
		}
	})
	routerD, routerAllocs := measure(sz.rungBudget, handlerCall(c, cl.Router().Handler(), r))

	tier0, err := predictCall(c, sv.o, p, perfmodel.Tier0Physics)
	if err != nil {
		return err
	}
	tier0D, _ := measure(sz.rungBudget, tier0)
	tier2, err := predictCall(c, sv.o, p, perfmodel.Tier2Measured)
	if err != nil {
		return err
	}
	tier2D, _ := measure(sz.rungBudget, tier2)
	sh, err := sv.o.shape(p.Workload)
	if err != nil {
		return err
	}
	var d dashboard.Dashboard
	for _, name := range sv.o.order {
		pred, err := sv.o.predictor(name, serverSeed, perfmodel.Tier1Calibrated)
		if err != nil {
			return err
		}
		d.Entries = append(d.Entries, dashboard.Entry{System: sv.o.systems[name], Predictor: pred})
	}
	assessD, _ := measure(sz.rungBudget, func() {
		as, err := d.AssessTier(sh.summary, sh.general, 32, 1000, perfmodel.Tier1Calibrated)
		if err == nil {
			_, err = dashboard.Recommend(as, dashboard.MinCost, 0)
		}
		if err != nil || len(dashboard.Pareto(as)) == 0 {
			c.fail("ladder assess: %v", err)
		}
	})

	c.layer("cluster.ring_successors_ns", ns(ringD))
	c.layer("serve.handler_ns", ns(serveD))
	c.layer("cluster.transport_ns", ns(transportD-serveD))
	c.layer("cluster.handler_ns", ns(routerD))
	c.layer("cluster.handler_allocs", routerAllocs)
	c.layer("cluster.hop_ns", ns(routerD-serveD))
	c.layer("perfmodel.predict_tier0_ns", ns(tier0D))
	c.layer("perfmodel.predict_tier2_ns", ns(tier2D))
	c.layer("dashboard.assess_us", us(assessD))
	c.rec.replay(c.root, true, []rung{
		{"cluster.handler", routerD}, {"cluster.transport", transportD}, {"serve.handler", serveD},
	})
	c.rec.replay(c.root, true, []rung{{"cluster.ring_successors", ringD}})
	c.rec.replay(c.root, true, []rung{{"dashboard.assess", assessD}})
	return nil
}

// fillLadder is predict_cold's: the build stages of one calibration at
// cylinder@6, each through its module's own entry point, then the cold
// handler that runs them all, and what a full cache weighs. Stages and
// handler are timed in turn, round after round, and each reports its
// median, so a slow phase of the host falls on all of them alike and the
// handler's overhead over its stages is not an artefact of when each ran.
func fillLadder(sv *service) error {
	c := sv.c
	w := serve.WorkloadSpec{Geometry: "cylinder", Scale: 6}
	sys := sv.o.systems["CSP-2"]
	access := lbm.HarveyAccess()
	srv, err := serve.New(serve.Config{DefaultSeed: serverSeed})
	if err != nil {
		return err
	}
	seed := int64(1 << 50)
	var tr trace
	next := func(w serve.WorkloadSpec) *request {
		seed++
		tr.reqs = tr.reqs[:0]
		return &tr.reqs[tr.addPredict(serve.PredictRequest{Workload: w, Systems: []string{sys.Abbrev}, Ranks: []int{8, 32, 128}, Seed: seed}, true)]
	}
	var char, geom, sparse, calib, rcb, cold []time.Duration
	var coldAlloc uint64
	var ms0, ms1 runtime.MemStats
	for round := 0; round < sz.fillRounds; round++ {
		var stageErr error
		var dom *geometry.Domain
		var solver *lbm.Sparse
		char = append(char, timed(func() {
			seed++
			_, stageErr = perfmodel.Characterize(sys, 5, rand.New(rand.NewSource(seed)))
		}))
		if stageErr != nil {
			return stageErr
		}
		geom = append(geom, timed(func() { dom, stageErr = campaign.BuildGeometry(w.Geometry, w.Scale) }))
		if stageErr != nil {
			return stageErr
		}
		sparse = append(sparse, timed(func() { solver, stageErr = lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02}) }))
		if stageErr != nil {
			return stageErr
		}
		calib = append(calib, timed(func() {
			_, stageErr = perfmodel.CalibrateGeneral(solver, access, core.CalibrationCounts(solver.N()), sv.o.coresPerNode)
		}))
		if stageErr != nil {
			return stageErr
		}
		rcb = append(rcb, timed(func() { _, stageErr = decomp.RCB(solver, 32, access) }))
		if stageErr != nil {
			return stageErr
		}
		runtime.ReadMemStats(&ms0)
		cold = append(cold, timed(handlerCall(c, srv.Handler(), next(w))))
		runtime.ReadMemStats(&ms1)
		coldAlloc += ms1.TotalAlloc - ms0.TotalAlloc
	}

	// Resident weight: a fresh server, a full cache of 64 entries at
	// cylinder@5, heap in use after a collection against the same before
	// the fills.
	srv, err = serve.New(serve.Config{DefaultSeed: serverSeed})
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < sz.residentFills; i++ {
		handlerCall(c, srv.Handler(), next(serve.WorkloadSpec{Geometry: "cylinder", Scale: 5}))()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	runtime.KeepAlive(srv)

	charD, geomD, sparseD, calibD := medianDuration(char), medianDuration(geom), medianDuration(sparse), medianDuration(calib)
	rcbD, coldD := medianDuration(rcb), medianDuration(cold)
	stages := charD + geomD + sparseD + calibD
	c.layer("perfmodel.characterize_ms", ms(charD))
	c.layer("campaign.build_geometry_ms", ms(geomD))
	c.layer("lbm.new_sparse_ms", ms(sparseD))
	c.layer("perfmodel.calibrate_general_ms", ms(calibD))
	c.layer("decomp.rcb_cold_ms", ms(rcbD))
	c.layer("serve.cold_handler_ms", ms(coldD))
	c.layer("serve.cold_overhead_ms", ms(coldD-stages))
	c.layer("serve.cold_alloc_mb", float64(coldAlloc)/float64(sz.fillRounds)/1e6)
	c.layer("serve.cache_resident_mb", (float64(ms1.HeapInuse)-float64(ms0.HeapInuse))/1e6)
	c.rec.replay(c.root, false, []rung{
		{"serve.cold_handler", coldD}, {"perfmodel.characterize", charD}, {"campaign.build_geometry", geomD},
		{"lbm.new_sparse", sparseD}, {"perfmodel.calibrate_general", calibD},
	})
	c.rec.replay(c.root, true, []rung{{"decomp.rcb_cold", rcbD}})
	return nil
}
