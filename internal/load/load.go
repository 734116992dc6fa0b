// Package load is the request-level load harness behind cmd/hfload: it
// replays a configurable mix of requests against a running hfserved at a
// target RPS with a worker pool, records client-side latency per route and
// outcome into obs histograms, and summarises the run — p50/p95/p99,
// achieved RPS, error rate, cache-hit rate per route — as the
// BENCH_serve_load.json report every scale PR is gated on.
//
// The mix mirrors how the service is actually exercised:
//
//	hot      repeated identical report params (cache hits)
//	cold     unique seeds per request (cold pipeline runs)
//	section  per-section partial runs cycling a section list
//	upload   POST /v1/datasets with a pre-generated CSV pair
//	dataset  reports over the uploaded dataset (?dataset=)
//	events   POST /v1/datasets/{id}/events appending a small JSON-lines
//	         batch, each followed by a windowed report (?window=30d) so
//	         both ingest latency and the windowed read path land in the
//	         benchmark report
//
// Every request carries a deterministic X-Request-Id, and the harness
// verifies the server echoes it back — the client half of the access-log
// request-id contract.
//
// The harness also works against cmd/hfrouter unchanged: the routed tier
// speaks the same API, and the report additionally tallies the X-Shard
// distribution (which shard answered each request) and the X-Hedged count
// (responses the router raced a second shard for).
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"mime/multipart"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"turnup"
	"turnup/internal/dataset"
	"turnup/internal/obs"
	"turnup/internal/version"
)

// Mix weights the request kinds in the replayed traffic. Zero-weight kinds
// are never issued (and their setup cost — corpus generation for uploads —
// is skipped).
type Mix struct {
	Hot     int `json:"hot"`
	Cold    int `json:"cold"`
	Section int `json:"section"`
	Upload  int `json:"upload"`
	Dataset int `json:"dataset"`
	Events  int `json:"events"`
	// Dense cycles Config.DenseKeys distinct report seeds — a keyspace
	// sized to overflow a small -max-cache-bytes budget, so the run
	// continuously admits and evicts (the memory-bound proof workload)
	// while still revisiting keys often enough to measure evicted-key
	// re-miss latency.
	Dense int `json:"dense,omitempty"`
}

// DefaultMix is a cache-friendly blend: mostly hot traffic with a steady
// trickle of cold runs, partial sections, uploads, dataset reports, and
// event appends.
func DefaultMix() Mix { return Mix{Hot: 6, Cold: 1, Section: 2, Upload: 1, Dataset: 2, Events: 1} }

func (m Mix) total() int {
	return m.Hot + m.Cold + m.Section + m.Upload + m.Dataset + m.Events + m.Dense
}

// kind indexes the request kinds in Mix order. kindWindow is never drawn
// by pick — each successful events append issues one windowed report as a
// follow-up, so the windowed read path is measured at exactly the moments
// its cache generation just moved.
type kind int

const (
	kindHot kind = iota
	kindCold
	kindSection
	kindUpload
	kindDataset
	kindEvents
	kindDense
	kindWindow
)

// routeNames label the per-kind latency series in the report and the
// registry (load_request_seconds{route=...}).
var routeNames = [...]string{"report:hot", "report:cold", "report:section", "datasets:upload", "report:dataset", "events:append", "report:dense", "report:window"}

// Config parameterises one load run. Zero values default sanely; only
// BaseURL is required.
type Config struct {
	BaseURL  string        // target server, e.g. http://127.0.0.1:8080
	RPS      float64       // target request rate (default 50)
	Duration time.Duration // how long to issue requests (default 10s)
	Workers  int           // concurrent request executors (default 8)
	Mix      Mix           // request blend (default DefaultMix)
	Seed     uint64        // drives the kind sequence and report params (default 1)

	Scale       float64  // ?scale= for report requests (default 0.02)
	UploadScale float64  // scale of the generated upload corpus (default 0.01)
	Sections    []string // cycled by section requests (default growth, corpus, concentration, payments)
	DenseKeys   int      // distinct seeds the dense mix cycles (default 512)

	Client   *http.Client  // default: 30s-timeout client
	Registry *obs.Registry // receives load_request_seconds histograms (fresh when nil)
	Logger   *slog.Logger  // optional run progress (nil = silent)
}

// Latency summarises one latency distribution in milliseconds.
type Latency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// RouteReport is the per-route section of the run report. Latency
// quantiles cover successful requests; errors are counted separately.
type RouteReport struct {
	Route        string  `json:"route"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	ErrorRate    float64 `json:"error_rate"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	Coalesced    int64   `json:"coalesced"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	LatencyMS    Latency `json:"latency_ms"`
}

// Report is the run summary hfload writes to BENCH_serve_load.json.
type Report struct {
	Version         string  `json:"version"`
	Target          string  `json:"target"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Seed            uint64  `json:"seed"`
	Mix             Mix     `json:"mix"`
	DurationSeconds float64 `json:"duration_seconds"`
	TargetRPS       float64 `json:"target_rps"`
	AchievedRPS     float64 `json:"achieved_rps"`
	Requests        int64   `json:"requests"`
	Errors          int64   `json:"errors"`
	ErrorRate       float64 `json:"error_rate"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	// MissedTicks counts scheduled requests that found every worker busy
	// — nonzero means the target RPS exceeded what client+server sustain.
	MissedTicks         int64   `json:"missed_ticks"`
	RequestIDMismatches int64   `json:"request_id_mismatches"`
	OverallMS           Latency `json:"overall_ms"`
	// Shards counts responses per X-Shard header value — empty against a
	// single unsharded hfserved, the routing distribution when the target
	// is hfrouter. Hedged counts responses the router raced a second
	// shard for (X-Hedged).
	Shards map[string]int64 `json:"shards,omitempty"`
	Hedged int64            `json:"hedged,omitempty"`
	Routes []RouteReport    `json:"routes"`
	// ServerMetrics is the end-of-run /metrics?format=json&gc=1 sample:
	// runtime health (heap_bytes after a forced GC, goroutines) and the
	// serve-layer cache gauges/counters, keyed by metric name. Nil when the
	// target does not answer /metrics (or the sample failed) — the memory
	// assertions then fail loudly rather than pass vacuously.
	ServerMetrics map[string]float64 `json:"server_metrics,omitempty"`
}

// routeStats accumulates one route's counters; latencies live in the
// registry histograms.
type routeStats struct {
	requests, errors, hits, misses, coalesced atomic.Int64
}

// runner is the per-run state shared by the workers.
type runner struct {
	cfg      Config
	client   *http.Client
	reg      *obs.Registry
	stats    [len(routeNames)]routeStats
	seq      atomic.Uint64 // request-id sequence
	coldSeq  atomic.Uint64 // unique seeds for cold requests
	secSeq   atomic.Uint64 // section rotation
	evSeq    atomic.Uint64 // unique user/contract ids for event batches
	denseSeq atomic.Uint64 // dense keyspace rotation
	missed   atomic.Int64
	idBad    atomic.Int64
	hedged   atomic.Int64

	shardMu sync.Mutex
	shards  map[string]int64 // responses per X-Shard value

	uploadBody []byte // prebuilt multipart body (replayed per upload)
	uploadCT   string
	datasetID  string
}

// sawShard tallies one response from the named shard.
func (r *runner) sawShard(shard string) {
	r.shardMu.Lock()
	if r.shards == nil {
		r.shards = make(map[string]int64)
	}
	r.shards[shard]++
	r.shardMu.Unlock()
}

// WaitReady polls /healthz until the server answers 200 or the timeout
// elapses — how hfload (and the Makefile's bench-load) syncs with a
// freshly booted hfserved.
func WaitReady(ctx context.Context, client *http.Client, baseURL string, timeout time.Duration) error {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("load: %s not ready after %s: %w", baseURL, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Run executes one load run against cfg.BaseURL and returns its report.
// The kind sequence is drawn from a seeded RNG by a single dispatcher, so
// a fixed seed replays the same mix order regardless of worker scheduling.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("load: BaseURL is required")
	}
	if cfg.RPS <= 0 {
		cfg.RPS = 50
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.02
	}
	if cfg.UploadScale <= 0 {
		cfg.UploadScale = 0.01
	}
	if len(cfg.Sections) == 0 {
		cfg.Sections = []string{"growth", "corpus", "concentration", "payments"}
	}
	if cfg.DenseKeys <= 0 {
		cfg.DenseKeys = 512
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	r := &runner{cfg: cfg, client: cfg.Client, reg: cfg.Registry}

	if cfg.Mix.Upload > 0 || cfg.Mix.Dataset > 0 || cfg.Mix.Events > 0 {
		if err := r.setupDataset(ctx); err != nil {
			return nil, err
		}
	}

	if cfg.Logger != nil {
		cfg.Logger.Info("load_start",
			"target", cfg.BaseURL, "rps", cfg.RPS, "duration", cfg.Duration, "workers", cfg.Workers)
	}

	// One dispatcher paces tokens at the target RPS and draws the kind
	// sequence; workers race only for tokens, never for the RNG.
	tokens := make(chan kind, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range tokens {
				r.do(ctx, k)
			}
		}()
	}

	start := time.Now()
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	interval := time.Duration(float64(time.Second) / cfg.RPS)
	ticker := time.NewTicker(interval)
	stop := time.After(cfg.Duration)
dispatch:
	for {
		select {
		case <-ticker.C:
			k := r.pick(rng)
			select {
			case tokens <- k:
			default:
				r.missed.Add(1)
			}
		case <-stop:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	ticker.Stop()
	close(tokens)
	wg.Wait()
	elapsed := time.Since(start)

	rep := r.report(elapsed)
	sm, err := SampleServerMetrics(ctx, cfg.Client, cfg.BaseURL)
	rep.ServerMetrics = sm
	if cfg.Logger != nil {
		if err != nil {
			cfg.Logger.Info("load_metrics_sample_failed", "err", err.Error())
		}
		cfg.Logger.Info("load_done", "requests", rep.Requests, "errors", rep.Errors,
			"achieved_rps", rep.AchievedRPS, "p99_ms", rep.OverallMS.P99)
	}
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	return rep, nil
}

// pick draws one request kind from the mix weights.
func (r *runner) pick(rng *rand.Rand) kind {
	m := r.cfg.Mix
	n := rng.Intn(m.total())
	for i, w := range []int{m.Hot, m.Cold, m.Section, m.Upload, m.Dataset, m.Events, m.Dense} {
		if n < w {
			return kind(i)
		}
		n -= w
	}
	return kindHot // unreachable
}

// setupDataset generates the upload corpus once, prebuilds the multipart
// body every upload request replays, and uploads it once so dataset
// report requests have an id to hit.
func (r *runner) setupDataset(ctx context.Context) error {
	d, err := turnup.GenerateCtx(ctx, turnup.Config{Seed: r.cfg.Seed, Scale: r.cfg.UploadScale})
	if err != nil {
		return fmt.Errorf("load: generating upload corpus: %w", err)
	}
	var contracts, users bytes.Buffer
	if err := dataset.WriteContractsCSV(&contracts, d.Contracts); err != nil {
		return err
	}
	if err := dataset.WriteUsersCSV(&users, d.Users); err != nil {
		return err
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, f := range []struct {
		field, name string
		data        []byte
	}{
		{"contracts", "contracts.csv", contracts.Bytes()},
		{"users", "users.csv", users.Bytes()},
	} {
		fw, err := mw.CreateFormFile(f.field, f.name)
		if err != nil {
			return err
		}
		if _, err := fw.Write(f.data); err != nil {
			return err
		}
	}
	if err := mw.Close(); err != nil {
		return err
	}
	r.uploadBody, r.uploadCT = body.Bytes(), mw.FormDataContentType()

	req, err := http.NewRequestWithContext(ctx, "POST", r.cfg.BaseURL+"/v1/datasets", bytes.NewReader(r.uploadBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", r.uploadCT)
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("load: seeding dataset: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("load: seeding dataset: status %d: %s", resp.StatusCode, b)
	}
	var uploaded struct {
		Dataset struct {
			ID string `json:"id"`
		} `json:"dataset"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&uploaded); err != nil || uploaded.Dataset.ID == "" {
		return fmt.Errorf("load: seeding dataset: bad upload response (%v)", err)
	}
	r.datasetID = uploaded.Dataset.ID
	return nil
}

// do issues one request of kind k and records its outcome.
func (r *runner) do(ctx context.Context, k kind) {
	var req *http.Request
	var err error
	switch k {
	case kindHot:
		req, err = http.NewRequestWithContext(ctx, "GET",
			fmt.Sprintf("%s/v1/report/%s?seed=%d&scale=%g&models=false",
				r.cfg.BaseURL, r.cfg.Sections[0], r.cfg.Seed, r.cfg.Scale), nil)
	case kindCold:
		// Unique seed per request: always a distinct cache key, so each
		// one exercises a cold pipeline run (on a fresh server).
		seed := r.cfg.Seed*1_000_000 + r.coldSeq.Add(1)
		req, err = http.NewRequestWithContext(ctx, "GET",
			fmt.Sprintf("%s/v1/report/%s?seed=%d&scale=%g&models=false",
				r.cfg.BaseURL, r.cfg.Sections[0], seed, r.cfg.Scale), nil)
	case kindSection:
		sec := r.cfg.Sections[int(r.secSeq.Add(1))%len(r.cfg.Sections)]
		req, err = http.NewRequestWithContext(ctx, "GET",
			fmt.Sprintf("%s/v1/report/%s?seed=%d&scale=%g&models=false",
				r.cfg.BaseURL, sec, r.cfg.Seed, r.cfg.Scale), nil)
	case kindUpload:
		req, err = http.NewRequestWithContext(ctx, "POST", r.cfg.BaseURL+"/v1/datasets", bytes.NewReader(r.uploadBody))
		if err == nil {
			req.Header.Set("Content-Type", r.uploadCT)
		}
	case kindDataset:
		req, err = http.NewRequestWithContext(ctx, "GET",
			fmt.Sprintf("%s/v1/report/%s?dataset=%s&models=false",
				r.cfg.BaseURL, r.cfg.Sections[0], r.datasetID), nil)
	case kindEvents:
		req, err = http.NewRequestWithContext(ctx, "POST",
			fmt.Sprintf("%s/v1/datasets/%s/events", r.cfg.BaseURL, r.datasetID),
			bytes.NewReader(r.eventBatch()))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-ndjson")
		}
	case kindDense:
		// Cycle a dense keyspace disjoint from the hot and cold seed ranges:
		// with a budget smaller than DenseKeys results, the cache is in
		// continuous admit/evict, which is exactly the state the memory-bound
		// assertions sample at the end of the run.
		seed := r.cfg.Seed*10_000_000 + r.denseSeq.Add(1)%uint64(r.cfg.DenseKeys)
		req, err = http.NewRequestWithContext(ctx, "GET",
			fmt.Sprintf("%s/v1/report/%s?seed=%d&scale=%g&models=false",
				r.cfg.BaseURL, r.cfg.Sections[0], seed, r.cfg.Scale), nil)
	case kindWindow:
		req, err = http.NewRequestWithContext(ctx, "GET",
			fmt.Sprintf("%s/v1/report/%s?dataset=%s&window=30d&models=false",
				r.cfg.BaseURL, r.cfg.Sections[0], r.datasetID), nil)
	}
	st := &r.stats[k]
	st.requests.Add(1)
	if err != nil {
		st.errors.Add(1)
		return
	}
	id := fmt.Sprintf("hfload-%d", r.seq.Add(1))
	req.Header.Set("X-Request-Id", id)

	start := time.Now()
	resp, err := r.client.Do(req)
	dur := time.Since(start).Seconds()
	outcome := "ok"
	if err != nil {
		outcome = "error"
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			outcome = "error"
		}
		if resp.Header.Get("X-Request-Id") != id {
			r.idBad.Add(1)
		}
		if shard := resp.Header.Get("X-Shard"); shard != "" {
			r.sawShard(shard)
		}
		if resp.Header.Get("X-Hedged") != "" {
			r.hedged.Add(1)
		}
		switch resp.Header.Get("X-Cache") {
		case "hit":
			st.hits.Add(1)
		case "miss":
			st.misses.Add(1)
		case "coalesced":
			st.coalesced.Add(1)
		}
	}
	if outcome == "error" {
		st.errors.Add(1)
	}
	r.reg.Histogram("load_request_seconds").Observe(dur)
	r.reg.Histogram(fmt.Sprintf(`load_request_seconds{route=%q,outcome=%q}`, routeNames[k], outcome)).Observe(dur)
	if k == kindEvents && outcome == "ok" {
		// Read-your-write: the windowed report right after an append lands
		// on the just-bumped generation, so report:window measures the
		// invalidate→recompute path rather than a steady cache hit.
		r.do(ctx, kindWindow)
	}
}

// eventBatch builds one small JSON-lines append: two fresh users and a
// completed public contract between them, created late in the COVID-19
// era. Sequential ids keep batches disjoint; concurrent workers may land
// batches out of creation order, which exercises the server's full-rebuild
// fallback alongside the in-order incremental path.
func (r *runner) eventBatch() []byte {
	n := r.evSeq.Add(1)
	maker := 5_000_000 + 2*n - 1
	taker := 5_000_000 + 2*n
	at := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(n) * time.Second)
	created := at.Format(time.RFC3339)
	done := at.Add(30 * time.Minute).Format(time.RFC3339)
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"kind":"user","id":%d,"joined":%q,"first_post":%q,"posts":1,"marketplace_posts":1,"reputation":1}`+"\n", maker, created, created)
	fmt.Fprintf(&b, `{"kind":"user","id":%d,"joined":%q,"first_post":%q,"posts":1,"marketplace_posts":1,"reputation":1}`+"\n", taker, created, created)
	fmt.Fprintf(&b, `{"kind":"contract","id":%d,"type":"EXCHANGE","maker":%d,"taker":%d,"thread":1,"created":%q,"decided":%q,"completed":%q,"status":"Complete","public":true,"maker_obligation":"btc","taker_obligation":"paypal transfer","maker_rating":1,"taker_rating":1}`+"\n",
		9_000_000+n, maker, taker, created, created, done)
	return b.Bytes()
}

// latencyOf summarises a histogram in milliseconds.
func latencyOf(h *obs.Histogram) Latency {
	const ms = 1000
	return Latency{
		P50:  h.Quantile(0.50) * ms,
		P95:  h.Quantile(0.95) * ms,
		P99:  h.Quantile(0.99) * ms,
		Mean: h.Mean() * ms,
		Max:  h.Max() * ms,
	}
}

// report assembles the run summary from the counters and histograms.
func (r *runner) report(elapsed time.Duration) *Report {
	rep := &Report{
		Version:             version.String(),
		Target:              r.cfg.BaseURL,
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Seed:                r.cfg.Seed,
		Mix:                 r.cfg.Mix,
		DurationSeconds:     elapsed.Seconds(),
		TargetRPS:           r.cfg.RPS,
		MissedTicks:         r.missed.Load(),
		RequestIDMismatches: r.idBad.Load(),
		OverallMS:           latencyOf(r.reg.Histogram("load_request_seconds")),
		Hedged:              r.hedged.Load(),
	}
	r.shardMu.Lock()
	if len(r.shards) > 0 {
		rep.Shards = make(map[string]int64, len(r.shards))
		for s, n := range r.shards {
			rep.Shards[s] = n
		}
	}
	r.shardMu.Unlock()
	var hits, lookups int64
	for k, name := range routeNames {
		st := &r.stats[k]
		n := st.requests.Load()
		if n == 0 {
			continue
		}
		rr := RouteReport{
			Route:       name,
			Requests:    n,
			Errors:      st.errors.Load(),
			CacheHits:   st.hits.Load(),
			CacheMisses: st.misses.Load(),
			Coalesced:   st.coalesced.Load(),
			LatencyMS:   latencyOf(r.reg.Histogram(fmt.Sprintf(`load_request_seconds{route=%q,outcome="ok"}`, name))),
		}
		rr.ErrorRate = float64(rr.Errors) / float64(n)
		if served := rr.CacheHits + rr.CacheMisses + rr.Coalesced; served > 0 {
			rr.CacheHitRate = float64(rr.CacheHits) / float64(served)
		}
		rep.Routes = append(rep.Routes, rr)
		rep.Requests += n
		rep.Errors += rr.Errors
		hits += rr.CacheHits
		lookups += rr.CacheHits + rr.CacheMisses + rr.Coalesced
	}
	sort.Slice(rep.Routes, func(i, j int) bool { return rep.Routes[i].Route < rep.Routes[j].Route })
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
	}
	if lookups > 0 {
		rep.CacheHitRate = float64(hits) / float64(lookups)
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	return rep
}

// ReadReport parses a BENCH_serve_load.json written by WriteReport — the
// gate's baseline loader.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("load: decoding report: %w", err)
	}
	return &rep, nil
}

// WriteReport writes the report as indented JSON.
func (rep *Report) WriteReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Gate compares this run against a baseline report: any route whose p99
// exceeds factor× the baseline's p99 (for routes present in both), or an
// overall p99 regression beyond the same factor, is an error — the CI
// load-smoke contract, mirroring bench-smoke's 2× rule. Sub-millisecond
// baselines are floored at 1ms so scheduler jitter on a hot cache path
// cannot flake the gate.
func (rep *Report) Gate(baseline *Report, factor float64) error {
	if factor <= 0 {
		factor = 2
	}
	const floorMS = 1.0
	var errs []error
	check := func(route string, now, base float64) {
		limit := base
		if limit < floorMS {
			limit = floorMS
		}
		limit *= factor
		if now > limit {
			errs = append(errs, fmt.Errorf("%s p99 %.2fms is %.2fx the %.2fms baseline (limit %.1fx)",
				route, now, now/base, base, factor))
		}
	}
	check("overall", rep.OverallMS.P99, baseline.OverallMS.P99)
	base := make(map[string]Latency, len(baseline.Routes))
	for _, rr := range baseline.Routes {
		base[rr.Route] = rr.LatencyMS
	}
	for _, rr := range rep.Routes {
		if b, ok := base[rr.Route]; ok {
			check(rr.Route, rr.LatencyMS.P99, b.P99)
		}
	}
	return errors.Join(errs...)
}

// CheckSLO enforces an absolute overall p99 ceiling (milliseconds).
func (rep *Report) CheckSLO(p99ms float64) error {
	if p99ms > 0 && rep.OverallMS.P99 > p99ms {
		return fmt.Errorf("load: overall p99 %.2fms exceeds the %.2fms SLO", rep.OverallMS.P99, p99ms)
	}
	return nil
}

// serverMetricPrefixes selects which of the target's metrics land in
// Report.ServerMetrics: runtime health plus every serve-layer cache
// series — the inputs of the heap-ceiling and cache-budget assertions and
// the gauges the benchmark snapshot archives.
var serverMetricPrefixes = []string{"runtime_", "serve_cache_", "serve_render_cache_", "serve_http_304"}

// SampleServerMetrics scrapes the target's /metrics JSON snapshot with
// gc=1 — the server garbage-collects and resamples its runtime gauges
// first, so heap_alloc reflects live bytes (retained caches, datasets),
// not floating garbage from the load just applied. Only scalar metrics
// matching serverMetricPrefixes are kept.
func SampleServerMetrics(ctx context.Context, client *http.Client, baseURL string) (map[string]float64, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/metrics?format=json&gc=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("load: sampling /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: sampling /metrics: status %d", resp.StatusCode)
	}
	var snap []struct {
		Name  string  `json:"name"`
		Kind  string  `json:"kind"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("load: decoding /metrics snapshot: %w", err)
	}
	out := make(map[string]float64)
	for _, m := range snap {
		if m.Kind != "counter" && m.Kind != "gauge" {
			continue
		}
		for _, prefix := range serverMetricPrefixes {
			if strings.HasPrefix(m.Name, prefix) {
				out[m.Name] = m.Value
				break
			}
		}
	}
	return out, nil
}

// CheckHeapCeiling enforces an absolute end-of-run heap ceiling (bytes)
// over the post-GC runtime_heap_alloc_bytes sample — the CI memory-bound
// assertion: a byte-budgeted cache under a dense keyspace must leave the
// heap near its budget, not growing with the keyspace. A missing sample
// is an error, not a pass.
func (rep *Report) CheckHeapCeiling(maxBytes int64) error {
	if maxBytes <= 0 {
		return nil
	}
	heap, ok := rep.ServerMetrics["runtime_heap_alloc_bytes"]
	if !ok {
		return errors.New("load: heap ceiling set but no runtime_heap_alloc_bytes sample (target /metrics unreachable?)")
	}
	if int64(heap) > maxBytes {
		return fmt.Errorf("load: end-of-run heap %.1f MiB exceeds the %.1f MiB ceiling",
			heap/(1<<20), float64(maxBytes)/(1<<20))
	}
	return nil
}

// CheckCacheBudget asserts the serve-layer byte accounting held: the
// serve_cache_bytes gauge (and the render tier's) must not exceed its
// configured budget at end of run. Like CheckHeapCeiling, a missing
// sample fails.
func (rep *Report) CheckCacheBudget(resultBudget, renderBudget int64) error {
	check := func(name string, budget int64) error {
		if budget <= 0 {
			return nil
		}
		got, ok := rep.ServerMetrics[name]
		if !ok {
			return fmt.Errorf("load: budget set but no %s sample (target /metrics unreachable?)", name)
		}
		if int64(got) > budget {
			return fmt.Errorf("load: %s %.0f exceeds the %d-byte budget", name, got, budget)
		}
		return nil
	}
	return errors.Join(
		check("serve_cache_bytes", resultBudget),
		check("serve_render_cache_bytes", renderBudget),
	)
}
