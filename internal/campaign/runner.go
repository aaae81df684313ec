package campaign

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// Backend selects the campaign execution engine.
type Backend string

// Available backends.
const (
	// BackendAuto picks BackendFleet when the config declares an
	// instance pool and BackendSerial otherwise.
	BackendAuto Backend = ""
	// BackendSerial runs jobs one at a time, each as a one-job fleet on
	// one recommended instance (the original Figure 1 loop).
	BackendSerial Backend = "serial"
	// BackendFleet schedules all jobs concurrently across the
	// config's instance pool.
	BackendFleet Backend = "fleet"
)

// ParseBackend maps a config/API string to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "serial":
		return BackendSerial, nil
	case "fleet":
		return BackendFleet, nil
	}
	return "", fmt.Errorf("campaign: unknown backend %q", s)
}

// ErrInterrupted reports that context cancellation stopped a campaign at
// a clean point: before a lattice build or between jobs. The Outcome
// accompanying the error carries everything finished before the
// interruption.
var ErrInterrupted = errors.New("campaign: interrupted")

// Runner is the options struct behind the single campaign entrypoint:
// both CLIs and POST /v1/campaigns dispatch serial and fleet execution
// through Runner.Run instead of duplicating config plumbing per mode.
type Runner struct {
	Backend Backend
}

// Outcome is a campaign result from either backend. Exactly one of
// Serial/Fleet is populated, matching Backend.
type Outcome struct {
	Backend Backend
	Serial  *Summary
	Fleet   *FleetSummary
}

// Render formats whichever backend report the outcome carries.
func (o Outcome) Render() string {
	switch {
	case o.Serial != nil:
		return o.Serial.Render()
	case o.Fleet != nil:
		return o.Fleet.Render()
	}
	return ""
}

// Warnings returns the units-check findings from either backend.
func (o Outcome) Warnings() []string {
	switch {
	case o.Serial != nil:
		return o.Serial.Warnings
	case o.Fleet != nil:
		return o.Fleet.Warnings
	}
	return nil
}

// resolve picks the concrete backend for a config.
func (r Runner) resolve(cfg Config) (Backend, error) {
	switch r.Backend {
	case BackendAuto:
		if cfg.Fleet != nil {
			return BackendFleet, nil
		}
		return BackendSerial, nil
	case BackendSerial:
		// A fleet block in the config is ignored: the caller asked for
		// the sequential engine explicitly.
		return BackendSerial, nil
	case BackendFleet:
		if cfg.Fleet == nil {
			return "", fmt.Errorf("campaign: fleet backend requested but config declares no fleet pool")
		}
		return BackendFleet, nil
	}
	return "", fmt.Errorf("campaign: unknown backend %q", r.Backend)
}

// Run executes the campaign on the selected backend. Both prepare every
// job before running any, building the campaign's distinct lattices
// concurrently; everything after that runs on the calling goroutine.
// Cancelling ctx stops the run at the next clean point — before a
// lattice build starts, between serial jobs, or before the fleet
// schedule — and returns the partial Outcome with an error wrapping
// ErrInterrupted; determinism is unaffected because cancellation only
// truncates the job sequence.
func (r Runner) Run(ctx context.Context, fw *core.Framework, cfg Config) (Outcome, error) {
	be, err := r.resolve(cfg)
	if err != nil {
		return Outcome{}, err
	}
	switch be {
	case BackendSerial:
		s, err := runSerial(ctx, fw, cfg)
		return Outcome{Backend: BackendSerial, Serial: &s}, err
	default:
		fs, err := runFleet(ctx, fw, cfg)
		return Outcome{Backend: BackendFleet, Fleet: &fs}, err
	}
}

// interrupted reports whether ctx was cancelled, wrapping the cause
// under ErrInterrupted.
func interrupted(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrInterrupted, err)
	}
	return nil
}
