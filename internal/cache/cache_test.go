package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// built stands in for a cached value; the field keeps distinct values at
// distinct addresses.
type built struct{ _ int }

// TestCacheHammer drives the LRU + singleflight from 32 goroutines
// under -race: every key's expensive build must run at most a handful
// of times (once per residency; eviction can force rebuilds but
// concurrent callers always coalesce), every caller for one key gets
// the same value, and the internal counters stay consistent.
func TestCacheHammer(t *testing.T) {
	const (
		goroutines = 32
		iters      = 200
		keys       = 4
	)
	c := New[string, *built](keys, nil) // capacity >= keys: no eviction churn
	var builds atomic.Int64
	vals := make([]*built, keys)
	for i := range vals {
		vals[i] = &built{}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % keys
				val, _, err := c.Get(context.Background(), fmt.Sprintf("key-%d", k), func() (*built, error) {
					builds.Add(1)
					time.Sleep(time.Millisecond) // widen the coalescing window
					return vals[k], nil
				})
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if val != vals[k] {
					t.Errorf("key %d returned wrong value", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if n := builds.Load(); n != keys {
		t.Errorf("build ran %d times for %d keys; coalescing failed", n, keys)
	}
	if c.Len() != keys {
		t.Errorf("cache holds %d entries, want %d", c.Len(), keys)
	}
}

// TestCacheCoalescedResult verifies the three-way result
// classification: first caller misses, resident callers hit, and a
// caller arriving mid-fill reports coalesced.
func TestCacheCoalescedResult(t *testing.T) {
	c := New[string, *built](4, nil)
	val := &built{}
	filling := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, res, err := c.Get(context.Background(), "k", func() (*built, error) {
			close(filling)
			<-release
			return val, nil
		})
		if err != nil || res != Miss {
			t.Errorf("filler: res %v, err %v; want miss", res, err)
		}
	}()
	<-filling

	wg.Add(1)
	go func() {
		defer wg.Done()
		got, res, err := c.Get(context.Background(), "k", func() (*built, error) {
			t.Error("second build ran during in-flight fill")
			return nil, nil
		})
		if err != nil || res != Coalesced || got != val {
			t.Errorf("waiter: got %p res %v err %v; want coalesced %p", got, res, err, val)
		}
	}()
	// Let the waiter park on the fill before releasing it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	_, res, err := c.Get(context.Background(), "k", func() (*built, error) {
		t.Error("build ran for resident key")
		return nil, nil
	})
	if err != nil || res != Hit {
		t.Errorf("resident: res %v, err %v; want hit", res, err)
	}
}

// TestCacheWaiterHonorsContext: a coalesced waiter abandoned by its own
// deadline returns promptly with the context error while the fill keeps
// going and still lands in the cache.
func TestCacheWaiterHonorsContext(t *testing.T) {
	c := New[string, *built](4, nil)
	val := &built{}
	filling := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Get(context.Background(), "k", func() (*built, error) {
			close(filling)
			<-release
			return val, nil
		})
		if err != nil {
			t.Errorf("filler: %v", err)
		}
	}()
	<-filling

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err := c.Get(ctx, "k", func() (*built, error) { return nil, nil })
	if err == nil || ctx.Err() == nil {
		t.Errorf("abandoned waiter: err %v, ctx %v; want deadline", err, ctx.Err())
	}

	close(release)
	wg.Wait()
	got, res, err := c.Get(context.Background(), "k", func() (*built, error) {
		t.Error("build ran again: abandoned fill was lost")
		return nil, nil
	})
	if err != nil || res != Hit || got != val {
		t.Errorf("post-abandon: got %p res %v err %v", got, res, err)
	}
}

// TestCacheErrorNotCached: a failed fill propagates but must not poison
// the key.
func TestCacheErrorNotCached(t *testing.T) {
	c := New[string, *built](4, nil)
	boom := fmt.Errorf("transient")
	if _, res, err := c.Get(context.Background(), "k", func() (*built, error) {
		return nil, boom
	}); err != boom || res != Miss {
		t.Fatalf("failed fill: res %v err %v", res, err)
	}
	val := &built{}
	got, res, err := c.Get(context.Background(), "k", func() (*built, error) {
		return val, nil
	})
	if err != nil || res != Miss || got != val {
		t.Fatalf("retry after failure: got %p res %v err %v", got, res, err)
	}
}

// TestCacheEviction: past capacity the least recently used key is
// evicted and must rebuild on the next request.
func TestCacheEviction(t *testing.T) {
	var observed [3]int
	c := New[string, *built](2, func(r Result) { observed[r]++ })
	builds := map[string]int{}
	fill := func(k string) func() (*built, error) {
		return func() (*built, error) {
			builds[k]++
			return &built{}, nil
		}
	}
	mustGet := func(k string) Result {
		t.Helper()
		_, res, err := c.Get(context.Background(), k, fill(k))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	mustGet("a")
	mustGet("b")
	mustGet("a") // refresh a: b is now LRU
	mustGet("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	if res := mustGet("a"); res != Hit {
		t.Errorf("a should be resident, got %v", res)
	}
	if res := mustGet("b"); res != Miss {
		t.Errorf("b should have been evicted, got %v", res)
	}
	if builds["b"] != 2 {
		t.Errorf("b built %d times, want 2", builds["b"])
	}
	// The observer saw every Get: a, b, c and b again missed, a hit twice.
	if observed != [3]int{Miss: 4, Hit: 2} {
		t.Errorf("observer counted %v, want 4 misses and 2 hits", observed)
	}
}

// TestCacheWaiterOutlivesImpatientFiller: a fill runs under the filling
// caller's context, so when that caller's deadline ends the fill, the
// error says nothing about the key. A waiter whose own context is live
// must not inherit it (a 504 for a request with time left): it takes the
// fill over. Impatient filler → its own error, patient waiter → the value,
// two builds.
func TestCacheWaiterOutlivesImpatientFiller(t *testing.T) {
	c := New[string, *built](4, nil)
	val := &built{}
	var builds atomic.Int64
	filling := make(chan struct{})
	build := func(ctx context.Context) func() (*built, error) {
		return func() (*built, error) {
			if builds.Add(1) == 1 {
				close(filling)
				<-ctx.Done() // a build stage noticing its request is over
				return nil, ctx.Err()
			}
			return val, ctx.Err()
		}
	}

	impatient, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, res, err := c.Get(impatient, "k", build(impatient))
		if res != Miss || err == nil {
			t.Errorf("impatient filler: res %v err %v, want a failed miss", res, err)
		}
	}()
	<-filling

	patient := context.Background()
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _, err := c.Get(patient, "k", build(patient))
		if err != nil || got != val {
			t.Errorf("patient waiter: got %p err %v, want %p and no error", got, err, val)
		}
	}()
	// Let the waiter park on the fill before the filler gives up.
	time.Sleep(10 * time.Millisecond)
	cancel()
	wg.Wait()

	if n := builds.Load(); n != 2 {
		t.Errorf("%d builds, want 2: the abandoned one and the waiter's", n)
	}
	if _, res, err := c.Get(patient, "k", build(patient)); err != nil || res != Hit {
		t.Errorf("after the takeover: res %v err %v, want a hit", res, err)
	}
}
