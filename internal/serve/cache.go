package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// cache is a bounded LRU with request coalescing: the expensive fill
// for a missing key runs exactly once, on the first caller's goroutine,
// while concurrent callers for the same key park on the fill's done
// channel. This is the serving layer's core economic bet — preparing an
// anatomy or characterizing a system costs milliseconds to seconds,
// model evaluation costs microseconds — so the caches turn the paper's
// decision procedure into a hot, effectively stateless call.
//
// Fill errors propagate to every parked waiter but are NOT cached: a
// transient failure must not poison the key. Waiters abandoned by their
// own context return its error; the fill keeps running under the filling
// caller and still populates the cache for future requests. A fill that
// ends because the filling caller's context ended says nothing about
// the key, so a waiter whose own context is still live takes the fill
// over instead of inheriting the filler's deadline.
type cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> element holding *cacheEntry[V]
	fills map[string]*fillCall[V]
}

type cacheEntry[V any] struct {
	key string
	val V
}

type fillCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// cacheResult classifies how a get was satisfied.
type cacheResult int

const (
	cacheMiss cacheResult = iota
	cacheHit
	cacheCoalesced
)

func newCache[V any](capacity int) *cache[V] {
	return &cache[V]{
		cap:   max(capacity, 1),
		ll:    list.New(),
		items: make(map[string]*list.Element),
		fills: make(map[string]*fillCall[V]),
	}
}

// get returns the value for key, running build on a miss. The
// cacheResult reports whether the value was resident, built here, or
// built by a concurrent request this call coalesced onto.
func (c *cache[V]) get(ctx context.Context, key string, build func() (V, error)) (V, cacheResult, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			entry, ok := el.Value.(*cacheEntry[V])
			c.mu.Unlock()
			if !ok {
				return zero, cacheHit, fmt.Errorf("serve: cache entry for %q has wrong type", key)
			}
			return entry.val, cacheHit, nil
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
			return f.val, cacheCoalesced, f.err
		case <-ctx.Done():
			return zero, cacheCoalesced, ctx.Err()
		}
	}
	f := &fillCall[V]{done: make(chan struct{})}
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
	return f.val, cacheMiss, f.err
}

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insertLocked adds a value and evicts from the LRU tail past capacity.
// Caller holds c.mu.
func (c *cache[V]) insertLocked(key string, v V) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		if entry, ok := el.Value.(*cacheEntry[V]); ok {
			entry.val = v
		}
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: v})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		if back == nil {
			return
		}
		if entry, ok := back.Value.(*cacheEntry[V]); ok {
			delete(c.items, entry.key)
		}
		c.ll.Remove(back)
	}
}

// len returns the resident entry count.
func (c *cache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
