// Package cache is the repository's one bounded LRU with request
// coalescing. The paper's economics are what it is for: preparing an
// anatomy, characterizing a system or decomposing a lattice costs
// milliseconds to seconds while evaluating the model on the result costs
// microseconds, so every layer that prepares keeps what it prepared — the
// planning service its dashboard entries and anatomies, a core.Framework
// its anatomies, an anatomy its decompositions — bounded, and built once
// however many callers ask at the same time.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// LRU is a bounded least-recently-used cache with singleflight fills:
// the expensive build for a missing key runs exactly once, on the first
// caller's goroutine and outside the cache's lock, while concurrent
// callers for the same key park on the fill's done channel and callers
// for other keys proceed.
//
// Fill errors propagate to every parked waiter but are NOT cached: a
// transient failure must not poison the key. Waiters abandoned by their
// own context return its error; the fill keeps running under the filling
// caller and still populates the cache for future requests. A fill that
// ends because the filling caller's context ended says nothing about
// the key, so a waiter whose own context is still live takes the fill
// over instead of inheriting the filler's deadline.
type LRU[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	observe func(Result)
	ll      *list.List          // front = most recently used
	items   map[K]*list.Element // key -> element holding *entry[K, V]
	fills   map[K]*fill[V]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

type fill[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Result classifies how a Get was satisfied.
type Result int

// The three ways a Get ends: the value was built here, was resident, or
// was built by a concurrent Get this one parked on.
const (
	Miss Result = iota
	Hit
	Coalesced
)

// New returns an empty cache holding at most capacity values (at least
// one). observe, when non-nil, is called with the Result of every Get
// as it returns, from the caller's goroutine and outside the lock — the
// hook a server counts its lookups through, whoever makes them.
func New[K comparable, V any](capacity int, observe func(Result)) *LRU[K, V] {
	return &LRU[K, V]{
		cap:     max(capacity, 1),
		observe: observe,
		ll:      list.New(),
		items:   make(map[K]*list.Element),
		fills:   make(map[K]*fill[V]),
	}
}

// Get returns the value for key, running build on a miss. The Result
// reports whether the value was resident, built here, or built by a
// concurrent caller this one coalesced onto.
func (c *LRU[K, V]) Get(ctx context.Context, key K, build func() (V, error)) (V, Result, error) {
	v, res, err := c.get(ctx, key, build)
	if c.observe != nil {
		c.observe(res)
	}
	return v, res, err
}

func (c *LRU[K, V]) get(ctx context.Context, key K, build func() (V, error)) (V, Result, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			e, ok := el.Value.(*entry[K, V])
			c.mu.Unlock()
			if !ok {
				return zero, Hit, fmt.Errorf("cache: entry for %v has wrong type", key)
			}
			return e.val, Hit, nil
		}
		f, filling := c.fills[key]
		if !filling {
			break // still holding c.mu: this caller fills
		}
		c.mu.Unlock()
		select {
		case <-f.done:
			if isContextError(f.err) && ctx.Err() == nil {
				continue // the filler gave up, not this caller: look again
			}
			return f.val, Coalesced, f.err
		case <-ctx.Done():
			return zero, Coalesced, ctx.Err()
		}
	}
	f := &fill[V]{done: make(chan struct{})}
	c.fills[key] = f
	c.mu.Unlock()

	f.val, f.err = build()

	c.mu.Lock()
	delete(c.fills, key)
	if f.err == nil {
		c.insertLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, Miss, f.err
}

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Add makes v the value of key, as a Get that built it would have left
// it, for a value its owner has before anyone asks. It is not a lookup:
// the observer is not called.
func (c *LRU[K, V]) Add(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, v)
}

// insertLocked adds a value and evicts from the LRU tail past capacity.
// Caller holds c.mu.
func (c *LRU[K, V]) insertLocked(key K, v V) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		if e, ok := el.Value.(*entry[K, V]); ok {
			e.val = v
		}
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		if back == nil {
			return
		}
		if e, ok := back.Value.(*entry[K, V]); ok {
			delete(c.items, e.key)
		}
		c.ll.Remove(back)
	}
}

// Len returns the resident entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
