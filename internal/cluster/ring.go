// Package cluster is the horizontal-scaling layer above internal/serve:
// it runs N planning-service replicas behind a router that shards
// requests by calibration cache key over a consistent-hash ring.
//
// The economics mirror the serving layer's: a calibration costs seconds
// while a cache-warm prediction costs microseconds, so the scarce
// resource in a fleet is warm cache entries. The cache key
// (system, workload, seed) is a pure deterministic identity — two
// replicas that both calibrate it produce byte-identical state — which
// makes it an ideal shard key: routing each key to exactly one replica
// turns N replicas into N *disjoint* warm caches (fleet capacity
// N × entries) instead of N copies of the same one (capacity: entries).
//
// The subsystem has three parts: Ring (this file) places keys on
// replicas with minimal movement as membership changes; replicaSet +
// health checking (replica.go) tracks which replicas are alive,
// draining, or dead; Router (router.go) is the HTTP front end that
// extracts shard keys, applies per-tenant admission control, forwards,
// and retries exactly once around the ring when a replica fails.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Ring is a consistent-hash ring with virtual nodes. Each member owns
// the arcs preceding its virtual points, so keys spread evenly (more
// vnodes = tighter balance) and membership changes move only the arcs
// adjacent to the added or removed member's points — every other key
// keeps its owner.
//
// Placement is a pure function of (seed, members, vnodes): FNV-64a over
// a seed prefix plus the member or key bytes, with no map iteration or
// wall-clock anywhere, so two routers configured identically agree on
// every key's owner without coordination.
type Ring struct {
	mu     sync.RWMutex
	seed   int64
	vnodes int
	points []ringPoint // sorted ascending by hash
	member map[string]bool
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultVnodes is the virtual-node count per member when a Ring is
// built with vnodes <= 0. 128 keeps the max/min owned-arc ratio small
// (empirically < 1.5 for small fleets) at negligible lookup cost.
const DefaultVnodes = 128

// NewRing builds an empty ring. The seed perturbs every hash, so
// distinct deployments can decorrelate their placements while any two
// rings sharing a seed agree exactly.
func NewRing(seed int64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{seed: seed, vnodes: vnodes, member: make(map[string]bool)}
}

// hash64 is the ring's placement hash: FNV-64a over the 8-byte seed
// followed by s, finished with the SplitMix64 mix (obs.Mix64). FNV alone
// is stable but avalanches poorly on near-identical strings ("r0#1" vs "r0#2"),
// which clusters virtual points and skews arc ownership ~5×; the
// finalizer scrambles the low-entropy tail. Both pieces are fixed
// algorithms, so placement stays reproducible across processes and Go
// versions.
//
//lint:hot
func hash64(seed int64, s string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:]) // hash.Hash Write never errors
	h.Write([]byte(s))
	return obs.Mix64(h.Sum64())
}

// Add inserts a member's virtual points. Adding an existing member is a
// no-op, so health-driven re-adds are idempotent.
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[name] {
		return
	}
	r.member[name] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   hash64(r.seed, fmt.Sprintf("%s#%d", name, i)),
			member: name,
		})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a member's virtual points; its arcs fall to the next
// points clockwise, leaving every other key's owner untouched.
func (r *Ring) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[name] {
		return
	}
	delete(r.member, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the current membership, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.member))
	for m := range r.member {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Owner returns the member owning key: the first virtual point at or
// clockwise past the key's hash. Empty string on an empty ring.
//
//lint:hot
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// Successors returns up to n distinct members in clockwise order
// starting at key's owner — the retry order when the owner fails:
// advancing to the next distinct member is exactly the placement the
// ring converges to once the failed member is removed.
//
//lint:hot
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search finds the index of the first point with hash >= key's hash,
// wrapping to 0. Caller holds a lock.
//
//lint:hot
func (r *Ring) search(key string) int {
	h := hash64(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
