package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/httpedge"
	"repro/internal/machine"
	"repro/internal/obs"
)

// campaignManager runs submitted campaigns asynchronously: each accepted
// POST /v1/campaigns spawns one goroutine executing the campaign against
// a fresh seeded Framework, while GET /v1/campaigns/{id} polls the
// record. Fresh but for the server's anatomy cache, which the framework
// prepares its jobs through: a campaign over shapes the service has
// already tuned prepares nothing. Capacity is bounded — excess
// submissions are shed with 429 — and drain implements graceful
// shutdown: stop intake, wait for running campaigns, and past the drain
// deadline interrupt them at their next clean point between jobs.
type campaignManager struct {
	systems []*machine.System
	samples int
	max     int
	reg     *obs.Registry

	// newFramework builds the execution framework per submission; a test
	// seam so handler tests can substitute a cheap catalog.
	newFramework func(seed int64) (*core.Framework, error)

	// runCtx parents every campaign run; cancel interrupts them all.
	runCtx context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	wg     sync.WaitGroup
	nextID int
	recs   map[string]*campaignRec
	active int
	closed bool
}

// campaignRec is the mutable status record behind one campaign ID.
// Guarded by campaignManager.mu.
type campaignRec struct {
	id       string
	state    string
	backend  campaign.Backend
	errMsg   string
	report   string
	warnings []string
	spentUSD float64
}

func newCampaignManager(systems []*machine.System, samples, max int, reg *obs.Registry, anatomies *core.AnatomyCache) *campaignManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &campaignManager{
		systems: systems,
		samples: samples,
		max:     max,
		reg:     reg,
		runCtx:  ctx,
		cancel:  cancel,
		nextID:  1,
		recs:    make(map[string]*campaignRec),
	}
	m.newFramework = func(seed int64) (*core.Framework, error) {
		fw, err := core.NewFramework(m.systems, m.samples, seed)
		if err != nil {
			return nil, err
		}
		fw.Anatomies = anatomies
		return fw, nil
	}
	return m
}

// submit validates and enqueues a campaign, returning its ID. Errors
// carry API statuses: 400 for a bad config, 429 at capacity, 503 after
// shutdown began.
func (m *campaignManager) submit(req CampaignRequest) (CampaignQueuedResponse, error) {
	be, err := campaign.ParseBackend(req.Backend)
	if err != nil {
		return CampaignQueuedResponse{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if len(req.Config) == 0 {
		return CampaignQueuedResponse{}, &apiError{status: http.StatusBadRequest, msg: "config is required"}
	}
	cfg, err := campaign.Load(bytes.NewReader(req.Config))
	if err != nil {
		return CampaignQueuedResponse{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if be == campaign.BackendFleet && cfg.Fleet == nil {
		return CampaignQueuedResponse{}, &apiError{status: http.StatusBadRequest,
			msg: "fleet backend requested but config declares no fleet pool"}
	}
	for _, j := range cfg.Jobs {
		if scale := j.LatticeScale(); scale > maxScale {
			return CampaignQueuedResponse{}, &apiError{status: http.StatusBadRequest,
				msg: fmt.Sprintf("job %q scale %g exceeds the limit of %d", j.Name, scale, maxScale)}
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return CampaignQueuedResponse{}, &apiError{status: http.StatusServiceUnavailable, msg: "server shutting down"}
	}
	if m.active >= m.max {
		m.mu.Unlock()
		return CampaignQueuedResponse{}, &apiError{status: http.StatusTooManyRequests,
			msg: fmt.Sprintf("campaign capacity (%d) full; retry after backoff", m.max)}
	}
	id := fmt.Sprintf("c-%06d", m.nextID)
	m.nextID++
	m.active++
	m.recs[id] = &campaignRec{id: id, state: CampaignQueued, backend: be}
	m.wg.Add(1)
	m.mu.Unlock()

	go m.run(id, be, cfg)
	return CampaignQueuedResponse{ID: id, URL: "/v1/campaigns/" + id}, nil
}

// run executes one campaign to completion (or interruption) and writes
// the terminal record.
func (m *campaignManager) run(id string, be campaign.Backend, cfg campaign.Config) {
	defer m.wg.Done()
	m.setState(id, CampaignRunning)

	outcome, err := func() (campaign.Outcome, error) {
		fw, err := m.newFramework(cfg.Seed)
		if err != nil {
			return campaign.Outcome{}, err
		}
		return campaign.Runner{Backend: be}.Run(m.runCtx, fw, cfg)
	}()

	m.mu.Lock()
	rec, ok := m.recs[id]
	if ok {
		rec.backend = outcome.Backend
		rec.report = outcome.Render()
		rec.warnings = outcome.Warnings()
		rec.spentUSD = outcomeSpend(outcome)
		if err != nil {
			rec.state = CampaignFailed
			rec.errMsg = err.Error()
			if errors.Is(err, campaign.ErrInterrupted) {
				rec.errMsg = "interrupted by shutdown; partial results retained"
			}
		} else {
			rec.state = CampaignDone
		}
		m.reg.Counter("serve_campaigns_total", obs.L("state", rec.state)).Inc()
	}
	m.active--
	m.mu.Unlock()
}

func (m *campaignManager) setState(id, state string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec, ok := m.recs[id]; ok {
		rec.state = state
	}
}

// status snapshots a campaign record, or a 404 apiError.
func (m *campaignManager) status(id string) (CampaignStatusResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return CampaignStatusResponse{}, &apiError{status: http.StatusNotFound,
			msg: fmt.Sprintf("campaign %q not found", id)}
	}
	return CampaignStatusResponse{
		ID:       rec.id,
		State:    rec.state,
		Backend:  string(rec.backend),
		Error:    rec.errMsg,
		Report:   rec.report,
		Warnings: append([]string(nil), rec.warnings...),
		SpentUSD: rec.spentUSD,
	}, nil
}

// running reports in-flight campaign count (for /v1/healthz).
func (m *campaignManager) running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// drain closes intake and waits for running campaigns. While ctx lives
// the wait is patient; once it expires the manager cancels the shared
// run context — campaigns stop at their next clean point between jobs
// with partial results recorded — and waits for that to land.
func (m *campaignManager) drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	m.cancel()
	<-done
	return fmt.Errorf("serve: drain deadline expired; campaigns interrupted: %w", ctx.Err())
}

// outcomeSpend extracts the money spent from either backend's summary.
func outcomeSpend(o campaign.Outcome) float64 {
	switch {
	case o.Serial != nil:
		return o.Serial.SpentUSD
	case o.Fleet != nil && o.Fleet.Report != nil:
		return o.Fleet.Report.SpentUSD
	}
	return 0
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ack, err := s.campaigns.submit(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpedge.WriteJSON(w, http.StatusAccepted, ack)
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.campaigns.status(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	httpedge.WriteJSON(w, http.StatusOK, st)
}
