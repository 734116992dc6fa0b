// Tests for the result cache's byte accounting: the admission policy,
// evict-by-bytes, and — under `go test -race` — the invariant that the
// sum of admitted entry sizes always equals both Cache.Bytes and the
// serve_cache_bytes gauge, across concurrent admissions, LRU evictions,
// and EvictWhere invalidations.
package serve_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"turnup"
	"turnup/internal/obs"
	"turnup/internal/serve"
)

// stubResults returns a distinct empty Suite per call — cache entries the
// test Sizer assigns deterministic sizes to without pipeline cost.
func stubRunner(sized *atomic.Int64) serve.RunFunc {
	return func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
		sized.Store(int64(64 + (p.Seed%13)*32))
		return &turnup.Results{}, nil
	}
}

func TestCacheByteAccountingInvariant(t *testing.T) {
	reg := obs.NewRegistry()
	// The runner records each run's intended size; the sizer reads it. The
	// two race benignly for the *value* under coalescing, but every size
	// drawn is within [64, 448], so the invariant bounds below hold for
	// any interleaving — and the accounting itself must match whatever
	// size was recorded at admission, which Entries() reports back.
	var next atomic.Int64
	c := serve.NewCache(context.Background(), stubRunner(&next), serve.CacheConfig{
		Capacity: 24,
		MaxBytes: 4096,
		MaxRuns:  8,
		Sizer:    func(*turnup.Results) int64 { return next.Load() },
	}, reg)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				seed := uint64(rng.Intn(40))
				if _, _, err := c.Get(context.Background(), serve.Params{Seed: seed, Scale: 0.01}, nil); err != nil {
					t.Errorf("Get(seed=%d): %v", seed, err)
					return
				}
				if i%50 == 17 {
					// Exercise invalidation concurrently with admissions.
					c.EvictWhere(func(p serve.Params) bool { return p.Seed%5 == 0 })
				}
			}
		}(w)
	}
	wg.Wait()

	var sum int64
	for _, e := range c.Entries() {
		if e.Bytes <= 0 {
			t.Fatalf("entry %s has non-positive size %d", e.Key, e.Bytes)
		}
		sum += e.Bytes
	}
	if got := c.Bytes(); got != sum {
		t.Fatalf("Cache.Bytes()=%d but entries sum to %d", got, sum)
	}
	if gauge := int64(reg.Gauge("serve_cache_bytes").Value()); gauge != sum {
		t.Fatalf("serve_cache_bytes gauge=%d but entries sum to %d", gauge, sum)
	}
	if entries := int(reg.Gauge("serve_cache_entries").Value()); entries != c.Len() {
		t.Fatalf("serve_cache_entries gauge=%d but Len()=%d", entries, c.Len())
	}
	if c.Bytes() > 4096 {
		t.Fatalf("cache holds %d bytes, budget is 4096", c.Bytes())
	}
	if c.Len() > 24 {
		t.Fatalf("cache holds %d entries, cap is 24", c.Len())
	}
}

// TestCacheAdmissionRejectsGiantResults pins the admission policy: a
// result sized over a quarter of MaxBytes is served to its waiters but
// never retained, leaving the accounting untouched.
func TestCacheAdmissionRejectsGiantResults(t *testing.T) {
	reg := obs.NewRegistry()
	c := serve.NewCache(context.Background(), func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
		return &turnup.Results{}, nil
	}, serve.CacheConfig{
		MaxBytes: 1000, // 250-byte admission bound
		Sizer:    func(*turnup.Results) int64 { return 500 },
	}, reg)

	res, status, err := c.Get(context.Background(), serve.Params{Seed: 1}, nil)
	if err != nil || res == nil || status != serve.StatusMiss {
		t.Fatalf("Get = (%v, %s, %v), want a served miss", res, status, err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("giant result retained: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if got := reg.Counter("serve_cache_rejected_total").Value(); got != 1 {
		t.Fatalf("serve_cache_rejected_total=%d, want 1", got)
	}
	// The rejected key stays uncached: the identical request runs again.
	if _, status, _ := c.Get(context.Background(), serve.Params{Seed: 1}, nil); status != serve.StatusMiss {
		t.Fatalf("repeat of rejected key = %s, want miss", status)
	}
}

// TestCacheEvictsByBytes pins the primary bound: admissions past the byte
// budget evict from the LRU back even when the entry-count cap is far off.
func TestCacheEvictsByBytes(t *testing.T) {
	reg := obs.NewRegistry()
	c := serve.NewCache(context.Background(), func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
		return &turnup.Results{}, nil
	}, serve.CacheConfig{
		Capacity: 100,
		MaxBytes: 1000,
		Sizer:    func(*turnup.Results) int64 { return 250 }, // at the 250-byte admission bound
	}, reg)

	for seed := uint64(1); seed <= 5; seed++ {
		if _, _, err := c.Get(context.Background(), serve.Params{Seed: seed}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 || c.Bytes() != 1000 {
		t.Fatalf("after 5 admissions at 250B/1000B: len=%d bytes=%d, want 4 entries / 1000 bytes", c.Len(), c.Bytes())
	}
	if got := reg.Counter("serve_cache_evictions_total").Value(); got != 1 {
		t.Fatalf("serve_cache_evictions_total=%d, want 1", got)
	}
	// The evicted entry is the least recently used — seed 1.
	if _, status, _ := c.Get(context.Background(), serve.Params{Seed: 1}, nil); status != serve.StatusMiss {
		t.Fatalf("oldest seed = %s, want miss after byte eviction", status)
	}
	// Invalidation credits everything back.
	if n := c.EvictWhere(func(serve.Params) bool { return true }); n != 4 {
		t.Fatalf("EvictWhere dropped %d, want 4", n)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after full invalidation: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if gauge := reg.Gauge("serve_cache_bytes").Value(); gauge != 0 {
		t.Fatalf("serve_cache_bytes gauge=%g after full invalidation", gauge)
	}
}
