// Package fleet is a discrete-event fleet scheduler: it dispatches a
// queue of simulation jobs across a configurable pool of simulated cloud
// instances (mixed system types, on-demand and spot capacity) under one
// campaign budget: the paper's end goal, a clinical simulation *service*
// with many patient cases in flight. It is also the one executor of a
// guarded job: a sequential campaign runs each job as a one-job fleet on
// a one-instance pool.
//
// The scheduler combines:
//
//   - a priority/deadline-aware queue with model-driven placement: each
//     job is placed on the cheapest instance whose predicted completion
//     time (from the performance model's seconds-per-step) meets the
//     job's deadline;
//   - fault handling: a spot-preemption event requeues the job from its
//     checkpointed step count with exponential backoff plus jitter, up
//     to a per-job retry cap;
//   - a budget governor that admits, defers, or sheds jobs against the
//     remaining campaign budget, reserving the predicted cost of running
//     jobs so concurrent placements cannot jointly overcommit;
//   - a structured event log (submitted, placed, deferred, preempted,
//     requeued, completed, shed — all stamped with simulated time) whose
//     completion records export as telemetry samples into
//     internal/monitor;
//   - one goroutine: each attempt runs inline on the event loop when it
//     is placed and is booked when the simulated clock reaches its end.
//     Every instance draws from its own seeded RNG, so two runs with the
//     same seed produce byte-identical event logs.
package fleet

import (
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/machine"
)

// InstanceConfig declares a slice of pool capacity: count instances of
// one catalog system, optionally on the spot market.
type InstanceConfig struct {
	System string `json:"system"`
	Count  int    `json:"count"`
	Spot   bool   `json:"spot,omitempty"`
}

// Config declares a fleet: its capacity, budget, and fault-handling
// policy. Zero-valued policy fields take the package defaults.
type Config struct {
	Seed      int64   `json:"seed"`
	BudgetUSD float64 `json:"budget_usd"` // 0 = unlimited

	// MaxRetries caps how many times one job is requeued after spot
	// preemptions before it is shed.
	MaxRetries int `json:"max_retries,omitempty"`

	// BackoffBaseS is the first requeue delay; each further retry doubles
	// it up to BackoffMaxS, and every delay is stretched by a uniform
	// jitter in [0, BackoffJitter].
	BackoffBaseS  float64 `json:"backoff_base_s,omitempty"`
	BackoffMaxS   float64 `json:"backoff_max_s,omitempty"`
	BackoffJitter float64 `json:"backoff_jitter,omitempty"`

	// PreemptionPerNodeHour is the spot-reclaim hazard rate applied to
	// jobs running on spot instances (expected preemptions per node-hour).
	PreemptionPerNodeHour float64 `json:"preemption_per_node_hour,omitempty"`

	Instances []InstanceConfig `json:"instances"`
}

// Policy defaults.
const (
	DefaultMaxRetries    = 5
	DefaultBackoffBaseS  = 30
	DefaultBackoffMaxS   = 960
	DefaultBackoffJitter = 0.25
)

// withDefaults returns the config with zero policy fields filled in.
func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.BackoffBaseS == 0 {
		c.BackoffBaseS = DefaultBackoffBaseS
	}
	if c.BackoffMaxS == 0 {
		c.BackoffMaxS = DefaultBackoffMaxS
	}
	if c.BackoffJitter == 0 {
		c.BackoffJitter = DefaultBackoffJitter
	}
	if c.PreemptionPerNodeHour == 0 {
		c.PreemptionPerNodeHour = cloud.SpotPreemptionPerHour
	}
	return c
}

// Validate checks the fleet declaration before any scheduling starts.
func (c Config) Validate() error {
	if len(c.Instances) == 0 {
		return fmt.Errorf("fleet: no instances declared")
	}
	for i, ic := range c.Instances {
		if ic.System == "" {
			return fmt.Errorf("fleet: instance group %d has no system", i)
		}
		if _, err := machine.ByAbbrev(ic.System); err != nil {
			return fmt.Errorf("fleet: instance group %d: %w", i, err)
		}
		if ic.Count < 1 {
			return fmt.Errorf("fleet: instance group %d (%s) needs count >= 1, got %d",
				i, ic.System, ic.Count)
		}
	}
	if c.BudgetUSD < 0 {
		return fmt.Errorf("fleet: negative budget %g", c.BudgetUSD)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fleet: negative retry cap %d", c.MaxRetries)
	}
	if c.BackoffBaseS < 0 || c.BackoffMaxS < 0 || c.BackoffJitter < 0 {
		return fmt.Errorf("fleet: negative backoff policy")
	}
	if c.PreemptionPerNodeHour < 0 {
		return fmt.Errorf("fleet: negative preemption hazard %g", c.PreemptionPerNodeHour)
	}
	return nil
}

// instance is one simulated machine in the pool.
type instance struct {
	id   string
	sys  *machine.System
	spot bool

	// rng draws this instance's provisioning jitter, run noise and spot
	// hazard. The event loop fixes the sequence of attempts an instance
	// runs, so the draws replay exactly under one seed.
	rng *rand.Rand

	// running is the attempt occupying the instance, nil while idle.
	running *placement

	// Lifetime statistics.
	jobs      int
	busyS     float64
	earnedUSD float64
}

// buildInstances expands the instance groups into the concrete pool,
// in declaration order (which fixes each instance's RNG seed).
func buildInstances(cfg Config) ([]*instance, error) {
	var out []*instance
	for _, ic := range cfg.Instances {
		sys, err := machine.ByAbbrev(ic.System)
		if err != nil {
			return nil, err
		}
		for k := 0; k < ic.Count; k++ {
			out = append(out, &instance{
				id:   fmt.Sprintf("%s#%d", ic.System, k),
				sys:  sys,
				spot: ic.Spot,
				rng:  rand.New(rand.NewSource(cfg.Seed + 0x9E3779B9*int64(len(out)+1))),
			})
		}
	}
	return out, nil
}
