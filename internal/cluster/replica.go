package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/obs"
)

// ReplicaState is a replica's position in the routing lifecycle.
// Healthy replicas own ring arcs and receive traffic; draining replicas
// keep answering what they already hold (campaign status polls, the
// serve layer's own 503-on-new-campaigns drain semantics) but own no
// arcs, so no new shard keys land on them; dead replicas are out of the
// ring entirely until a poll sees them answer again.
type ReplicaState int

const (
	StateHealthy ReplicaState = iota
	StateDraining
	StateDead
)

func (s ReplicaState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Replica names one serve.Server instance and the transport that
// reaches it. BaseURL is the scheme://host prefix requests are
// rewritten to; Transport carries them (an in-process handler adapter
// for tests and single-process clusters, an *http.Transport for real
// deployments).
type Replica struct {
	Name      string
	BaseURL   string
	Transport http.RoundTripper
}

// replicaSet is the mutable health view over the cluster's replicas,
// shared by the router and the poller. State transitions drive ring
// membership: leaving StateHealthy removes the replica's virtual points
// (its arcs fall to ring successors — the rebalance), re-entering adds
// them back.
type replicaSet struct {
	ring *Ring
	reg  *obs.Registry

	mu       sync.RWMutex
	replicas map[string]*replicaRec
	order    []string // configured order, for stable reporting
}

type replicaRec struct {
	Replica
	state    ReplicaState
	failures int // consecutive forward/poll failures
}

func newReplicaSet(replicas []Replica, ring *Ring, reg *obs.Registry) (*replicaSet, error) {
	rs := &replicaSet{ring: ring, reg: reg, replicas: make(map[string]*replicaRec, len(replicas))}
	for _, r := range replicas {
		if r.Name == "" {
			return nil, fmt.Errorf("cluster: replica with empty name")
		}
		if r.Transport == nil {
			return nil, fmt.Errorf("cluster: replica %q has no transport", r.Name)
		}
		if _, dup := rs.replicas[r.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica %q", r.Name)
		}
		rs.replicas[r.Name] = &replicaRec{Replica: r, state: StateHealthy}
		rs.order = append(rs.order, r.Name)
		ring.Add(r.Name)
		rs.upGauge(r.Name).Set(1)
	}
	if len(rs.replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas")
	}
	return rs, nil
}

func (rs *replicaSet) upGauge(name string) *obs.Gauge {
	return rs.reg.Gauge("cluster_replica_up", obs.L("replica", name))
}

// get resolves a replica by name.
func (rs *replicaSet) get(name string) (Replica, bool) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	rec, ok := rs.replicas[name]
	if !ok {
		return Replica{}, false
	}
	return rec.Replica, true
}

// setState transitions a replica and keeps the ring consistent:
// only healthy replicas hold virtual points.
func (rs *replicaSet) setState(name string, to ReplicaState) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rec, ok := rs.replicas[name]
	if !ok || rec.state == to {
		return ok
	}
	from := rec.state
	rec.state = to
	if to == StateHealthy {
		rec.failures = 0
		rs.ring.Add(name)
		rs.upGauge(name).Set(1)
	} else if from == StateHealthy {
		rs.ring.Remove(name)
		rs.upGauge(name).Set(0)
	}
	rs.reg.Counter("cluster_replica_transitions_total",
		obs.L("replica", name), obs.L("to", to.String())).Inc()
	return true
}

// reportFailure records one forward/poll failure against a replica;
// past the threshold a healthy replica is declared dead and its ring
// arcs rebalance to its successors. Draining replicas are left alone —
// they are already out of the ring and expected to go away.
func (rs *replicaSet) reportFailure(name string, threshold int) {
	rs.mu.Lock()
	rec, ok := rs.replicas[name]
	if !ok || rec.state != StateHealthy {
		rs.mu.Unlock()
		return
	}
	rec.failures++
	dead := rec.failures >= threshold
	rs.mu.Unlock()
	if dead {
		rs.setState(name, StateDead)
	}
}

// reportSuccess clears the failure streak and revives a dead replica.
func (rs *replicaSet) reportSuccess(name string) {
	rs.mu.Lock()
	rec, ok := rs.replicas[name]
	if !ok {
		rs.mu.Unlock()
		return
	}
	rec.failures = 0
	revive := rec.state == StateDead
	rs.mu.Unlock()
	if revive {
		rs.setState(name, StateHealthy)
	}
}

// snapshot returns the replica states in configured order.
func (rs *replicaSet) snapshot() []ReplicaStatus {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := make([]ReplicaStatus, 0, len(rs.order))
	for _, name := range rs.order {
		rec := rs.replicas[name]
		out = append(out, ReplicaStatus{
			Name:     name,
			BaseURL:  rec.BaseURL,
			State:    rec.state.String(),
			Failures: rec.failures,
		})
	}
	return out
}

// names returns every configured replica name (any state), sorted.
func (rs *replicaSet) names() []string {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := append([]string(nil), rs.order...)
	sort.Strings(out)
	return out
}
