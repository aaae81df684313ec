package serve

import (
	"fmt"
	"net/http"

	"repro/internal/dashboard"
	"repro/internal/httpedge"
)

func assessmentJSON(a dashboard.Assessment) AssessmentJSON {
	return AssessmentJSON{
		System:              a.System,
		Ranks:               a.Ranks,
		MFLUPS:              a.MFLUPS,
		Seconds:             a.Seconds,
		USD:                 a.USD,
		MFLUPSPerDollarHour: a.MFLUPSPerDollarHour,
		Tier:                a.Tier,
		Confidence:          confidenceJSON(a.Confidence),
		Extrapolated:        a.Extrapolated,
	}
}

// handlePlan runs the dashboard decision procedure over the requested
// (or whole) catalog: assess every system with the anatomy-tuned
// generalized model, cut the ones that bust the cost or deadline bound,
// recommend under the objective, and report the time/cost Pareto
// frontier of what's left.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	obj, err := dashboard.ParseObjective(req.Objective)
	if err != nil {
		httpedge.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := withTimeoutMS(r.Context(), req.TimeoutMS)
	defer cancel()

	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.DefaultSeed
	}
	tier := normalizeTier(req.Tier)

	systems, err := s.resolve(req.Systems)
	if err != nil {
		writeErr(w, err)
		return
	}
	a, err := s.anatomyFor(ctx, req.Workload)
	if err != nil {
		writeErr(w, err)
		return
	}
	g, err := a.General()
	if err != nil {
		writeErr(w, err)
		return
	}
	d := dashboard.Dashboard{Entries: make([]dashboard.Entry, len(systems))}
	for i, sys := range systems {
		if d.Entries[i], _, err = s.entryFor(ctx, sys, seed, tier); err != nil {
			writeErr(w, err)
			return
		}
	}
	as, err := d.AssessTier(a.Summary, g, req.Ranks, req.Steps, tier)
	if err != nil {
		writeErr(w, err)
		return
	}

	var kept []dashboard.Assessment
	resp := PlanResponse{Objective: obj.String()}
	for _, a := range as {
		resp.Assessments = append(resp.Assessments, assessmentJSON(a))
		switch {
		case req.MaxUSD > 0 && a.USD > req.MaxUSD:
			resp.Excluded = append(resp.Excluded,
				fmt.Sprintf("%s: predicted $%.4f exceeds max_usd $%.4f", a.System, a.USD, req.MaxUSD))
		case req.DeadlineS > 0 && a.Seconds > req.DeadlineS:
			resp.Excluded = append(resp.Excluded,
				fmt.Sprintf("%s: predicted %.1fs exceeds deadline_s %.1f", a.System, a.Seconds, req.DeadlineS))
		default:
			kept = append(kept, a)
		}
	}
	if len(kept) > 0 {
		best, err := dashboard.Recommend(kept, obj, 0)
		if err != nil {
			writeErr(w, err)
			return
		}
		bj := assessmentJSON(best)
		resp.Recommended = &bj
		for _, a := range dashboard.Pareto(kept) {
			resp.Pareto = append(resp.Pareto, assessmentJSON(a))
		}
	}
	httpedge.WriteJSON(w, http.StatusOK, resp)
}
