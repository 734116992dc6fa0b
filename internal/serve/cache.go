// Package serve exposes the simulate→analyse pipeline as an HTTP service
// (command hfserved). Its core is a deduplicating result cache: requests
// are keyed by their run parameters, identical concurrent requests
// coalesce onto one underlying pipeline run (a thundering herd costs one
// run), completed results live in a size-bounded LRU, and a semaphore caps
// how many pipeline runs execute at once while cache hits are served
// immediately. See DESIGN.md §3.3.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"sync"
	"time"

	"turnup"
	"turnup/internal/obs"
)

// Params keys one pipeline run: the corpus source (generate from Seed and
// Scale, or analyse the stored dataset Dataset at generation Generation)
// plus the analysis knobs (K, Models, Stages) and the optional time
// window (Window, AsOf). Two requests with equal canonical Params are the
// same run — the LRU and the coalescer both key on Params.Key. Scheduler
// width (Options.Workers) is deliberately not part of the key: results
// are bit-for-bit identical at any worker count.
type Params struct {
	Seed   uint64
	Scale  float64
	K      int
	Models bool
	Stages []string
	// Dataset is the stable id (ds-…) of a stored dataset; "" = generate.
	Dataset string
	// Generation is the dataset's append generation at request time.
	// Folding it into the key is what lets a hot windowed report stay
	// cached exactly until an append actually changes the corpus: the
	// next request after an append carries a new generation and misses.
	Generation uint64
	// Window ("30d", "90d", "era-to-date") and AsOf (YYYY-MM-DD) select a
	// time-windowed view of the dataset; both empty means full history.
	Window string
	AsOf   string
}

// Canon returns p with the stage list sorted and deduplicated, so listing
// the same stages in a different order cannot split the cache. Stage
// selection is set-valued (the scheduler adds transitive deps and runs in
// DAG order), so reordering is semantics-preserving. When the corpus is an
// uploaded dataset, Scale is zeroed: it only parameterises generation, and
// keeping a stray value would split the cache for identical runs.
func (p Params) Canon() Params {
	if len(p.Stages) > 1 {
		st := append([]string(nil), p.Stages...)
		sort.Strings(st)
		out := st[:0]
		for i, s := range st {
			if i == 0 || s != st[i-1] {
				out = append(out, s)
			}
		}
		p.Stages = out
	}
	if p.Dataset != "" {
		p.Scale = 0
	}
	return p
}

// Key returns the canonical cache key: the SHA-256 (hex) of an injective
// binary encoding of the canonical Params. Fixed-width fields plus
// length-prefixed strings make the encoding collision-proof — unlike the
// printf-joined key it replaces, no stage or dataset token containing a
// separator ("," or " ") can alias two distinct Params onto one key.
func (p Params) Key() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putStr := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(p.Seed)
	put(math.Float64bits(p.Scale))
	put(uint64(p.K))
	if p.Models {
		put(1)
	} else {
		put(0)
	}
	putStr(p.Dataset)
	put(p.Generation)
	putStr(p.Window)
	putStr(p.AsOf)
	put(uint64(len(p.Stages)))
	for _, st := range p.Stages {
		putStr(st)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Status classifies how a request was satisfied; it is exported to
// clients as the X-Cache response header.
type Status string

const (
	// StatusHit — served from the completed-results LRU; no pipeline work.
	StatusHit Status = "hit"
	// StatusMiss — this request started the underlying pipeline run.
	StatusMiss Status = "miss"
	// StatusCoalesced — joined a run an earlier identical request started.
	StatusCoalesced Status = "coalesced"
)

// RunFunc executes one pipeline run for the given parameters. For
// dataset-backed requests snap carries the resolved snapshot — the corpus
// and its shared Index, pinned at request time so a concurrent DELETE or
// LRU eviction cannot yank the data mid-run; it is nil for generated
// corpora. The production runner generates or windows the corpus and runs
// the analysis suite; tests substitute stubs to pin cache mechanics
// without pipeline cost.
type RunFunc func(ctx context.Context, p Params, snap *Snapshot) (*turnup.Results, error)

// Cache is the deduplicating, byte-accounted result cache. Entries are
// bounded twice over: a byte budget (MaxBytes, the primary bound — each
// result's resident size is estimated once at admission and the LRU
// evicts by bytes) and an entry-count cap (a secondary bound against
// pathological many-tiny-results keyspaces). An admission policy keeps a
// single giant result from flushing the whole working set: results larger
// than a quarter of the budget are returned to their waiters but never
// cached. All outcomes are counted in the registry
// (serve_cache_{hits,misses,coalesced,rejected}_total,
// serve_cache_evictions_total, and the serve_cache_bytes/serve_cache_entries
// gauges) so cache behaviour is observable on /metrics, which is also how
// the tests assert it.
type Cache struct {
	runner   RunFunc
	base     context.Context // run lifetime: cancelling it aborts in-flight runs
	sem      chan struct{}   // caps concurrent pipeline runs
	maxEntry int64           // admission bound: larger results are never cached
	ttl      time.Duration   // max age a completed result is served (0 = forever)
	sizer    func(*turnup.Results) int64
	reg      *obs.Registry

	mu       sync.Mutex
	lru      *lru[string, *cacheEntry] // Params.Key → completed result, sized at admission
	inflight map[string]*flight        // Params.Key → running flight
}

// cacheEntry is one completed result in the LRU. The canonical Params are
// retained so EvictWhere can match entries semantically (by dataset id or
// generation) without reversing the hashed key.
type cacheEntry struct {
	p   Params
	res *turnup.Results
	at  time.Time // completion time, the TTL anchor
}

// flight is one in-progress run; every coalesced waiter blocks on done,
// which is closed only after res/err are set.
type flight struct {
	done chan struct{}
	res  *turnup.Results
	err  error
}

// CacheConfig bounds a Cache. Zero values default sanely, so tests and
// callers set only what they pin.
type CacheConfig struct {
	// Capacity is the entry-count bound (<=0 means 64) — secondary to the
	// byte budget, it stops many-tiny-results keyspaces from growing the
	// bookkeeping without bound.
	Capacity int
	// MaxBytes is the byte budget over retained results (<=0 means 1 GiB).
	// The sum of admitted entry sizes never exceeds it, and a result
	// estimated larger than MaxBytes/4 is served to its waiters but never
	// cached, so one giant result cannot flush the working set.
	MaxBytes int64
	// MaxRuns caps concurrent pipeline runs (<=0 means 2).
	MaxRuns int
	// TTL bounds how long a completed result is served before it is re-run
	// (<=0 means no age bound — generation keying already invalidates
	// dataset-backed results exactly; the TTL is a belt-and-braces bound
	// for deployments that want one).
	TTL time.Duration
	// Sizer overrides the admission-size estimate (tests pin byte
	// accounting with deterministic sizes); nil means Results.SizeBytes.
	Sizer func(*turnup.Results) int64
}

// NewCache builds a cache over runner. base bounds the lifetime of every
// run this cache starts (nil means background — runs are then only
// bounded by completion); see CacheConfig for the bounds.
func NewCache(base context.Context, runner RunFunc, cfg CacheConfig, reg *obs.Registry) *Cache {
	if base == nil {
		base = context.Background()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 30
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 2
	}
	if cfg.TTL < 0 {
		cfg.TTL = 0
	}
	sizer := cfg.Sizer
	if sizer == nil {
		sizer = func(res *turnup.Results) int64 { return res.SizeBytes() }
	}
	// Pre-register every counter the cache can increment so the exposition
	// carries them at 0 from boot — scrapers (and the CI smoke greps) see
	// the full vocabulary before the first hit or eviction occurs.
	for _, name := range []string{
		"serve_cache_hits_total", "serve_cache_misses_total",
		"serve_cache_coalesced_total", "serve_cache_evictions_total",
		"serve_cache_expirations_total", "serve_cache_invalidations_total",
		"serve_cache_rejected_total", "serve_runs_total",
	} {
		reg.Counter(name)
	}
	c := &Cache{
		runner:   runner,
		base:     base,
		sem:      make(chan struct{}, cfg.MaxRuns),
		maxEntry: cfg.MaxBytes / 4,
		ttl:      cfg.TTL,
		sizer:    sizer,
		reg:      reg,
		lru:      newLRU[string, *cacheEntry](cfg.Capacity, cfg.MaxBytes),
		inflight: make(map[string]*flight),
	}
	c.syncGauges()
	return c
}

// syncGauges mirrors the byte and entry accounting into the registry;
// callers hold mu, so the gauge always reflects a consistent state.
func (c *Cache) syncGauges() {
	c.reg.Gauge("serve_cache_bytes").Set(float64(c.lru.bytes()))
	c.reg.Gauge("serve_cache_entries").Set(float64(c.lru.len()))
}

// Get returns the results for p: from the LRU when present (and younger
// than the TTL), by joining an identical in-flight run when one exists,
// and otherwise by starting the pipeline (subject to the run semaphore).
// snap is handed to the flight leader's runner; coalesced waiters' snaps
// are interchangeable — an equal key pins an equal generation, hence the
// same immutable snapshot. The run itself executes under the cache's base
// context, not ctx — a caller whose ctx is cancelled merely stops waiting
// while the run completes for the cache and any other waiters; cancelling
// the base context (server shutdown) aborts the run through the
// pipeline's context threading.
func (c *Cache) Get(ctx context.Context, p Params, snap *Snapshot) (*turnup.Results, Status, error) {
	p = p.Canon()
	key := p.Key()

	c.mu.Lock()
	if e, ok := c.lru.get(key); ok {
		if c.ttl > 0 && time.Since(e.at) > c.ttl {
			// Expired: drop the entry and fall through to a fresh run.
			c.lru.remove(key)
			c.syncGauges()
			c.reg.Counter("serve_cache_expirations_total").Inc()
		} else {
			c.mu.Unlock()
			c.reg.Counter("serve_cache_hits_total").Inc()
			return e.res, StatusHit, nil
		}
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.reg.Counter("serve_cache_coalesced_total").Inc()
		return c.wait(ctx, f, StatusCoalesced)
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()
	c.reg.Counter("serve_cache_misses_total").Inc()
	go c.run(key, p, snap, f)
	return c.wait(ctx, f, StatusMiss)
}

// wait blocks until the flight completes or the caller's ctx is done.
func (c *Cache) wait(ctx context.Context, f *flight, s Status) (*turnup.Results, Status, error) {
	select {
	case <-f.done:
		return f.res, s, f.err
	case <-ctx.Done():
		return nil, s, ctx.Err()
	}
}

// run is the flight leader: it acquires a run slot, executes the pipeline
// under the base context, publishes the outcome to every waiter, and
// installs successful results into the LRU. Errors are not cached — the
// next identical request retries.
func (c *Cache) run(key string, p Params, snap *Snapshot, f *flight) {
	// A select between the semaphore and base.Done() chooses randomly when
	// both are ready, so a run could launch after server shutdown; checking
	// shutdown first (and again after acquiring a slot) closes that race.
	if err := context.Cause(c.base); err != nil {
		c.finish(key, p, f, nil, err)
		return
	}
	select {
	case c.sem <- struct{}{}:
	case <-c.base.Done():
		c.finish(key, p, f, nil, context.Cause(c.base))
		return
	}
	defer func() { <-c.sem }()
	if err := context.Cause(c.base); err != nil {
		c.finish(key, p, f, nil, err)
		return
	}

	c.reg.Gauge("serve_runs_inflight").Add(1)
	start := time.Now()
	res, err := c.runner(c.base, p, snap)
	c.reg.Gauge("serve_runs_inflight").Add(-1)
	c.reg.Histogram("serve_run_seconds").Observe(time.Since(start).Seconds())
	c.reg.Counter("serve_runs_total").Inc()
	c.finish(key, p, f, res, err)
}

// finish retires the flight: it leaves the in-flight table, a successful
// result is sized and — when it passes admission — enters the LRU front,
// evicting from the back until both the byte budget and the entry cap
// hold again; done is closed to release every waiter. The size estimate
// is computed before taking the lock: walking a Scale-1.0 result is
// real work and must not serialise unrelated cache traffic.
func (c *Cache) finish(key string, p Params, f *flight, res *turnup.Results, err error) {
	var size int64
	if err == nil {
		size = c.sizer(res)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	switch {
	case err != nil:
	case size > c.maxEntry:
		// Admission policy: a single result that would occupy more than a
		// quarter of the budget is not worth the working set it would
		// evict. Waiters still get the result; it is just never retained.
		c.reg.Counter("serve_cache_rejected_total").Inc()
	default:
		evicted := c.lru.add(key, &cacheEntry{p: p, res: res, at: time.Now()}, size)
		c.reg.Counter("serve_cache_evictions_total").Add(int64(len(evicted)))
		c.syncGauges()
	}
	c.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}

// EvictWhere drops every completed result whose canonical Params satisfy
// pred, returning how many were dropped. It is the generation-staleness
// hook: an append evicts results for older generations of its dataset,
// and a DELETE (or store LRU eviction) evicts everything for the id — so
// a later re-upload restarting at generation 1 can never alias a stale
// (id, generation) entry onto fresh content. In-flight runs are
// untouched; they complete against the immutable snapshot they hold.
func (c *Cache) EvictWhere(pred func(Params) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.removeWhere(func(e *cacheEntry) bool { return pred(e.p) })
	if n > 0 {
		c.syncGauges()
		c.reg.Counter("serve_cache_invalidations_total").Add(int64(n))
	}
	return n
}

// Len reports the number of completed results currently held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.len()
}

// Bytes reports the byte accounting over retained results — the value the
// serve_cache_bytes gauge mirrors.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.bytes()
}
