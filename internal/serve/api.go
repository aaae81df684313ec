package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/httpedge"
	"repro/internal/perfmodel"
)

// This file defines the versioned JSON vocabulary of the /v1 API. Field
// names are frozen: additive evolution only — a breaking change means a
// /v2 prefix, never a mutation of these shapes.

// Request limits: what one request can make a replica build or compute,
// each answered with a 400 naming it. The largest uses in the tree are
// scale 10 (the campaign examples; aorta@8 over HTTP) and a batch of 512
// predictions (one system × ranks 1…512 in the benchmark's predict_warm).
const (
	// maxScale bounds a workload's scale, and each campaign job's. A
	// lattice grows as scale³: aorta@32 is ≈ 1.7 M fluid sites.
	maxScale = 32
	// maxPredictions bounds a predict batch, systems × ranks, where no
	// systems named counts the whole catalog.
	maxPredictions = 4096
	// maxRanks bounds one rank count, a predict ranks entry or a plan's
	// ranks: 512 times Figure 11's largest run, and far below where a
	// node count (ranks rounded up to whole nodes) overflows an int.
	maxRanks = 1 << 20
)

// checkRanks rejects a rank count outside [1, maxRanks]; name is the
// request field it came from.
func checkRanks(name string, ranks int) error {
	if ranks < 1 {
		return fmt.Errorf("%s %d must be positive", name, ranks)
	}
	if ranks > maxRanks {
		return fmt.Errorf("%s %d exceeds the limit of %d", name, ranks, maxRanks)
	}
	return nil
}

// WorkloadSpec names a simulation domain in the campaign geometry
// vocabulary at a lattice scale. It is all of the anatomy cache's key
// that a request chooses (core.AnatomyKey): two requests that agree on
// it share one prepared anatomy, whatever systems, seeds and tiers they
// ask about.
type WorkloadSpec struct {
	Geometry string  `json:"geometry"`
	Scale    float64 `json:"scale"`
}

func (w WorkloadSpec) validate() error {
	if w.Geometry == "" {
		return fmt.Errorf("workload.geometry is required")
	}
	if w.Scale <= 0 {
		return fmt.Errorf("workload.scale %g must be positive", w.Scale)
	}
	if w.Scale > maxScale {
		return fmt.Errorf("workload.scale %g exceeds the limit of %d", w.Scale, maxScale)
	}
	return nil
}

// checkBatch rejects a predict batch of more than maxPredictions.
func checkBatch(systems, ranks int) error {
	if systems*ranks > maxPredictions {
		return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(
			"batch of %d systems × %d ranks exceeds the limit of %d predictions", systems, ranks, maxPredictions)}
	}
	return nil
}

// PredictRequest asks for model predictions for one workload across
// instance types and rank counts — the batch is the cross product
// Systems × Ranks. Leaving Systems empty predicts on the server's whole
// catalog (the paper's Table I systems).
type PredictRequest struct {
	Workload WorkloadSpec `json:"workload"`
	Systems  []string     `json:"systems,omitempty"`
	Ranks    []int        `json:"ranks"`

	// Model is perfmodel.ModelDirect or perfmodel.ModelGeneral; empty
	// selects the generalized model, the hot stateless path.
	Model string `json:"model,omitempty"`

	// Tier selects the accuracy tier: "tier0" (physics), "tier1"
	// (calibrated), "tier2" (measured efficiency), or "auto" (best
	// available). Empty keeps the pre-tier behavior, the calibrated
	// Tier 1 path — old clients see the responses they always did.
	Tier string `json:"tier,omitempty"`

	// Occupancy models shared-node co-tenancy (direct model only).
	Occupancy float64 `json:"occupancy,omitempty"`

	// Seed selects the calibration noise seed; 0 uses the server
	// default. Identical seeds hit identical cache entries.
	Seed int64 `json:"seed,omitempty"`

	// TimeoutMS tightens this request's deadline below the server
	// ceiling; 0 inherits the ceiling.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (r PredictRequest) validate() error {
	if err := r.Workload.validate(); err != nil {
		return err
	}
	if len(r.Ranks) == 0 {
		return fmt.Errorf("ranks is required (one prediction per rank count)")
	}
	for _, k := range r.Ranks {
		if err := checkRanks("ranks entry", k); err != nil {
			return err
		}
	}
	switch r.Model {
	case "", perfmodel.ModelDirect, perfmodel.ModelGeneral:
	default:
		return fmt.Errorf("model %q must be %q or %q", r.Model, perfmodel.ModelDirect, perfmodel.ModelGeneral)
	}
	if err := validateTier(r.Tier); err != nil {
		return err
	}
	if r.Occupancy < 0 || r.Occupancy > 1 {
		return fmt.Errorf("occupancy %g outside [0,1]", r.Occupancy)
	}
	return nil
}

// validateTier rejects unknown tier values up front (→ 400), naming the
// accepted set. Empty is allowed: it keeps the legacy Tier 1 behavior.
func validateTier(tier string) error {
	switch tier {
	case "", perfmodel.TierAuto, perfmodel.Tier0Physics, perfmodel.Tier1Calibrated, perfmodel.Tier2Measured:
		return nil
	}
	return fmt.Errorf("tier %q must be one of %v (or empty for the default %q)",
		tier, perfmodel.ValidTiers(), perfmodel.Tier1Calibrated)
}

// ConfidenceJSON is a prediction's deterministic confidence band.
type ConfidenceJSON struct {
	LoMFLUPS float64 `json:"lo_mflups"`
	HiMFLUPS float64 `json:"hi_mflups"`
}

func confidenceJSON(b perfmodel.Band) *ConfidenceJSON {
	if b == (perfmodel.Band{}) {
		return nil
	}
	return &ConfidenceJSON{LoMFLUPS: b.LoMFLUPS, HiMFLUPS: b.HiMFLUPS}
}

// PredictionJSON is one model evaluation in a response.
type PredictionJSON struct {
	System         string  `json:"system"`
	Model          string  `json:"model"`
	Ranks          int     `json:"ranks"`
	MFLUPS         float64 `json:"mflups"`
	SecondsPerStep float64 `json:"seconds_per_step"`

	// Runtime composition of the gating task (Figures 9 and 10).
	MemS           float64 `json:"mem_s,omitempty"`
	IntraS         float64 `json:"intra_s,omitempty"`
	InterS         float64 `json:"inter_s,omitempty"`
	CPUGPUs        float64 `json:"cpu_gpu_s,omitempty"`
	CommBandwidthS float64 `json:"comm_bandwidth_s,omitempty"`
	CommLatencyS   float64 `json:"comm_latency_s,omitempty"`

	// Provenance (additive, v1-compatible): which accuracy tier served
	// the prediction, its confidence band, and whether the tier
	// extrapolated beyond its calibration or table coverage.
	Tier         string          `json:"tier,omitempty"`
	Confidence   *ConfidenceJSON `json:"confidence,omitempty"`
	Extrapolated bool            `json:"extrapolated,omitempty"`
}

// predictionJSON is a prediction's row in struct form: the reference
// that appendPrediction's bytes are tested against.
func predictionJSON(p perfmodel.Prediction) PredictionJSON {
	return PredictionJSON{
		System:         p.System,
		Model:          p.Model,
		Ranks:          p.Ranks,
		MFLUPS:         p.MFLUPS,
		SecondsPerStep: p.SecondsPerStep,
		MemS:           p.MemS,
		IntraS:         p.IntraS,
		InterS:         p.InterS,
		CPUGPUs:        p.CPUGPUs,
		CommBandwidthS: p.CommBandwidthS,
		CommLatencyS:   p.CommLatencyS,
		Tier:           p.Tier,
		Confidence:     confidenceJSON(p.Confidence),
		Extrapolated:   p.Extrapolated,
	}
}

// PredictResponse carries the batch plus this request's cache activity:
// how many calibrations were served from cache, how many it had to run,
// and how many rode on another in-flight request's work. It is the
// /v1/predict schema clients decode; the server does not build one but
// appends each row as it is computed (encode.go), and
// FuzzPredictionEncoding pins those bytes to encoding/json's for
// predictionJSON.
type PredictResponse struct {
	Predictions    []PredictionJSON `json:"predictions"`
	CacheHits      int              `json:"cache_hits"`
	CacheMisses    int              `json:"cache_misses"`
	CacheCoalesced int              `json:"cache_coalesced"`
}

// PlanRequest asks for a cost-bounded instance recommendation for a
// job of Steps timesteps at Ranks tasks.
type PlanRequest struct {
	Workload WorkloadSpec `json:"workload"`
	Ranks    int          `json:"ranks"`
	Steps    int          `json:"steps"`

	// Objective is max-throughput, min-cost, min-time or max-value
	// (default).
	Objective string `json:"objective,omitempty"`

	// Tier selects the accuracy tier for the assessments (see
	// PredictRequest.Tier); empty keeps the calibrated Tier 1 default.
	Tier string `json:"tier,omitempty"`

	// MaxUSD excludes systems whose predicted job cost exceeds it
	// (0 = unbounded); DeadlineS excludes systems whose predicted time
	// to solution exceeds it (0 = none).
	MaxUSD    float64 `json:"max_usd,omitempty"`
	DeadlineS float64 `json:"deadline_s,omitempty"`

	Systems   []string `json:"systems,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

func (r PlanRequest) validate() error {
	if err := r.Workload.validate(); err != nil {
		return err
	}
	if err := checkRanks("ranks", r.Ranks); err != nil {
		return err
	}
	if r.Steps < 1 {
		return fmt.Errorf("steps %d must be positive", r.Steps)
	}
	if r.MaxUSD < 0 {
		return fmt.Errorf("max_usd %g negative", r.MaxUSD)
	}
	if r.DeadlineS < 0 {
		return fmt.Errorf("deadline_s %g negative", r.DeadlineS)
	}
	return validateTier(r.Tier)
}

// AssessmentJSON is one instance type's predicted verdict for the job.
type AssessmentJSON struct {
	System              string  `json:"system"`
	Ranks               int     `json:"ranks"`
	MFLUPS              float64 `json:"mflups"`
	Seconds             float64 `json:"seconds"`
	USD                 float64 `json:"usd"`
	MFLUPSPerDollarHour float64 `json:"mflups_per_dollar_hour"`

	// Provenance (additive, v1-compatible), mirroring PredictionJSON.
	Tier         string          `json:"tier,omitempty"`
	Confidence   *ConfidenceJSON `json:"confidence,omitempty"`
	Extrapolated bool            `json:"extrapolated,omitempty"`
}

// PlanResponse reports the recommendation. Recommended is null when no
// system satisfies the bounds; Excluded explains each cut.
type PlanResponse struct {
	Recommended *AssessmentJSON  `json:"recommended"`
	Objective   string           `json:"objective"`
	Assessments []AssessmentJSON `json:"assessments"`
	// Pareto is the time/cost frontier among the feasible systems,
	// fastest first — the set worth showing a user who wants to make
	// the trade-off personally.
	Pareto   []AssessmentJSON `json:"pareto,omitempty"`
	Excluded []string         `json:"excluded,omitempty"`
}

// CampaignRequest submits a campaign for asynchronous execution.
// Config is a complete campaign configuration (the same schema the
// campaign and fleet CLIs load); Backend selects the engine: "serial",
// "fleet", or ""/"auto" to infer from the config's fleet block.
type CampaignRequest struct {
	Backend string          `json:"backend,omitempty"`
	Config  json.RawMessage `json:"config"`
}

// CampaignQueuedResponse acknowledges an accepted submission.
type CampaignQueuedResponse struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Campaign lifecycle states.
const (
	CampaignQueued  = "queued"
	CampaignRunning = "running"
	CampaignDone    = "done"
	CampaignFailed  = "failed"
)

// CampaignStatusResponse reports an async campaign's progress. Report
// and the numeric fields populate once the run finishes.
type CampaignStatusResponse struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Backend  string   `json:"backend,omitempty"`
	Error    string   `json:"error,omitempty"`
	Report   string   `json:"report,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
	SpentUSD float64  `json:"spent_usd,omitempty"`
}

// HealthResponse is the /v1/healthz body.
type HealthResponse struct {
	Status       string  `json:"status"`
	UptimeS      float64 `json:"uptime_s"`
	CacheEntries int     `json:"cache_entries"`
	Anatomies    int     `json:"anatomies"`
	Campaigns    int     `json:"campaigns_inflight"`
}

// ErrorResponse is the uniform error body for every non-2xx status.
type ErrorResponse = httpedge.ErrorResponse
