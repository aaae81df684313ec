package cluster

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// admission is the router's front door: a per-tenant token bucket
// (identity from the X-Tenant header, "default" when absent) plus a
// global in-flight cap. Both shed with 429 + jittered Retry-After
// rather than queueing — the same no-collapse contract internal/serve
// makes, applied before any replica spends work on the request.
//
// The clock is injectable so quota tests are deterministic.
type admission struct {
	rate     float64 // tokens per second per tenant; <= 0 disables quotas
	burst    float64
	inflight chan struct{} // nil disables the cap
	now      func() time.Time
	reg      *obs.Registry

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newAdmission(rate, burst float64, maxInflight int, reg *obs.Registry) *admission {
	if burst <= 0 {
		burst = 1
	}
	a := &admission{
		rate:    rate,
		burst:   burst,
		now:     time.Now,
		reg:     reg,
		buckets: make(map[string]*tokenBucket),
	}
	if maxInflight > 0 {
		a.inflight = make(chan struct{}, maxInflight)
	}
	return a
}

// admitTenant spends one token from the tenant's bucket, reporting
// whether the request may proceed. Buckets refill continuously at rate
// up to burst; a new tenant starts full.
func (a *admission) admitTenant(tenant string) bool {
	if a.rate <= 0 {
		return true
	}
	if tenant == "" {
		tenant = "default"
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[tenant]
	if !ok {
		b = &tokenBucket{tokens: a.burst, last: now}
		a.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * a.rate
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		a.reg.Counter("cluster_admission_denied_total", obs.L("reason", "quota")).Inc()
		return false
	}
	b.tokens--
	return true
}

// acquire takes an in-flight slot without blocking; release undoes it.
// A nil limiter always admits.
func (a *admission) acquire() bool {
	if a.inflight == nil {
		return true
	}
	select {
	case a.inflight <- struct{}{}:
		return true
	default:
		a.reg.Counter("cluster_admission_denied_total", obs.L("reason", "inflight")).Inc()
		return false
	}
}

func (a *admission) release() {
	if a.inflight != nil {
		<-a.inflight
	}
}
