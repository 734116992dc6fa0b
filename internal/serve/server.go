package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"turnup"
	"turnup/internal/ingest"
	"turnup/internal/obs"
	"turnup/internal/version"
)

// Options configures a Server. The zero value serves with sane defaults:
// a 64-entry cache, 2 concurrent pipeline runs, GOMAXPROCS analysis
// workers per run, scales up to 1.0, and a fresh metrics registry.
type Options struct {
	CacheSize int // completed results retained in the LRU (default 64)
	MaxRuns   int // concurrent pipeline runs (default 2); hits bypass this cap
	Workers   int // analysis stages per run; 0 = GOMAXPROCS (not part of the cache key)
	// MaxCacheBytes is the result cache's byte budget (default 1 GiB): each
	// admitted result is sized once (Results.SizeBytes) and the LRU evicts
	// by bytes, with CacheSize as a secondary count bound. Results sized
	// over a quarter of it are served but never cached, so one giant result
	// cannot flush the working set.
	MaxCacheBytes int64
	// RenderCacheBytes is the rendered-body cache's byte budget: 0 means
	// the 64 MiB default, negative disables the tier (every response then
	// re-renders, the pre-two-tier behaviour — the render gate's baseline).
	RenderCacheBytes int64

	MaxScale     float64 // largest accepted ?scale= (default 1.0, the paper-sized corpus)
	DefaultScale float64 // ?scale= default (default 0.05)
	DefaultK     int     // ?k= default (default 12, the paper's choice; at most MaxK)

	// Shard names this process within a sharded tier (hfserved -shard,
	// conventionally its advertised base URL). It is stamped on the
	// X-Shard response header and the JSON envelope's shard field so a
	// router — and the load harness behind it — can attribute every
	// response to the process that produced it. Empty means unsharded.
	Shard string

	// MaxDatasets bounds how many uploaded datasets the store retains
	// (default 16); beyond it the least-recently-used dataset is evicted.
	MaxDatasets int
	// MaxDatasetBytes bounds both one upload's body size (413 beyond) and
	// the total canonical CSV bytes the store retains (default 256 MiB).
	MaxDatasetBytes int64

	// Metrics receives request, cache, and run metrics and is exported on
	// /metrics; a fresh registry is created when nil.
	Metrics *obs.Registry
	// AccessLog, when non-nil, receives one structured line per request
	// (method, route, status, bytes, duration, cache state, request id).
	AccessLog *slog.Logger
	// Trace, when non-nil, records one child span per request under the
	// tracer's root (method, path, status, cache outcome, request id).
	Trace *obs.Tracer
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Runner substitutes the pipeline (tests); nil means the real
	// generate→analyse pipeline.
	Runner RunFunc
	// BaseContext bounds every pipeline run this server starts; cancel it
	// on shutdown to abort in-flight runs. Nil means context.Background().
	BaseContext context.Context
}

// Server is the HTTP analysis service: section reports over a
// deduplicating result cache, plus the sections/stages registries,
// health, and metrics. It implements http.Handler.
type Server struct {
	opts       Options
	reg        *obs.Registry
	cache      *Cache
	rcache     *RenderCache // nil when RenderCacheBytes < 0 (tier disabled)
	datasets   *Store
	mux        *http.ServeMux
	modelStage map[string]bool // stage name → model tier (for 400s under models=false)
	start      time.Time
}

// New builds a Server from opts (see Options for defaults).
func New(opts Options) *Server {
	if opts.MaxScale <= 0 {
		opts.MaxScale = 1.0
	}
	if opts.DefaultScale <= 0 {
		opts.DefaultScale = 0.05
	}
	if opts.DefaultK <= 0 {
		opts.DefaultK = 12
	}
	if opts.MaxDatasetBytes <= 0 {
		opts.MaxDatasetBytes = 256 << 20
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	s := &Server{
		opts:       opts,
		reg:        opts.Metrics,
		datasets:   NewStore(opts.MaxDatasets, opts.MaxDatasetBytes, opts.Metrics),
		mux:        http.NewServeMux(),
		modelStage: make(map[string]bool),
		start:      time.Now(),
	}
	runner := opts.Runner
	if runner == nil {
		runner = s.pipelineRunner(opts.Workers)
	}
	s.cache = NewCache(opts.BaseContext, runner, CacheConfig{
		Capacity: opts.CacheSize,
		MaxBytes: opts.MaxCacheBytes,
		MaxRuns:  opts.MaxRuns,
	}, opts.Metrics)
	if opts.RenderCacheBytes >= 0 {
		s.rcache = NewRenderCache(opts.RenderCacheBytes, opts.Metrics)
	}
	opts.Metrics.Counter("serve_http_304_total")
	// When a dataset id leaves the store (DELETE or LRU eviction), purge
	// its cached report results — both tiers: a later re-upload under the
	// same id restarts generations at 1, and surviving entries would alias
	// the new content's (id, generation) cache keys.
	s.datasets.OnDrop(func(id string) {
		s.Invalidate(func(p Params) bool { return p.Dataset == id })
	})
	// The constant-1 build-info gauge is the Prometheus idiom for joining
	// any other metric to the build that produced it.
	s.reg.Gauge(fmt.Sprintf(`turnup_build_info{version=%q}`, version.String())).Set(1)
	for _, st := range turnup.Stages() {
		s.modelStage[st.Name] = st.Model
	}
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/report/{section}", s.handleReport)
	s.mux.HandleFunc("GET /v1/sections", s.handleSections)
	s.mux.HandleFunc("GET /v1/stages", s.handleStages)
	s.mux.HandleFunc("POST /v1/datasets", s.handleDatasetUpload)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	s.mux.HandleFunc("DELETE /v1/datasets/{id}", s.handleDatasetDelete)
	s.mux.HandleFunc("POST /v1/datasets/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// pipelineRunner is the production RunFunc: obtain the corpus — generate
// it for (Seed, Scale), or take the dataset snapshot handleReport pinned
// at request time (optionally narrowed to its ?window=/?as-of= view) —
// then run the analysis suite. Both halves honour ctx, so cancelling the
// server's base context aborts a run between simulated months or between
// analysis stages. Full-history dataset runs reuse the store's
// incrementally maintained Index; windowed views derive their own (the
// window changes corpus membership, not just its suffix).
func (s *Server) pipelineRunner(workers int) RunFunc {
	return func(ctx context.Context, p Params, snap *Snapshot) (*turnup.Results, error) {
		var d *turnup.Dataset
		var ix *turnup.Index
		if p.Dataset != "" {
			if snap == nil {
				return nil, fmt.Errorf("dataset %s has no pinned snapshot", p.Dataset)
			}
			d, ix = snap.D, snap.Ix
			if p.Window != "" || p.AsOf != "" {
				wd, err := ingest.Window(d, p.Window, p.AsOf)
				if err != nil {
					return nil, err
				}
				d, ix = wd, nil
			}
		} else {
			var err error
			if d, err = turnup.GenerateCtx(ctx, turnup.Config{Seed: p.Seed, Scale: p.Scale}); err != nil {
				return nil, err
			}
		}
		return turnup.RunCtx(ctx, d, turnup.RunOptions{
			Seed:         p.Seed,
			LatentClassK: p.K,
			SkipModels:   !p.Models,
			Workers:      workers,
			Stages:       p.Stages,
			Index:        ix,
		})
	}
}

// Invalidate drops matching entries from both cache tiers, returning the
// total dropped. Every invalidation hook (dataset drop, generation
// advance on append) goes through here so the tiers can never disagree:
// a stale rendered body must not outlive the result it was rendered from.
func (s *Server) Invalidate(pred func(Params) bool) int {
	return s.cache.EvictWhere(pred) + s.rcache.EvictWhere(pred)
}

// ServeHTTP dispatches through the mux under the request-level
// observability contract: every request gets an id (an inbound
// X-Request-Id is honoured, else one is minted) stamped on the response
// header, the per-request trace span, and the access-log line — so a
// client report, a log line, and a span can always be joined. Metrics:
// a request counter, an in-flight gauge, the overall latency histogram,
// a per-route+status latency histogram (serve_http_request_seconds,
// which is what hfload's client-side view is cross-checked against),
// and an error counter for 4xx/5xx.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := RequestID(r)
	s.reg.Counter("serve_http_requests_total").Inc()
	s.reg.Gauge("serve_http_inflight").Add(1)
	var sp *obs.Span
	if s.opts.Trace != nil {
		sp = s.opts.Trace.Root().StartChild("http " + r.Method + " " + r.URL.Path)
		sp.SetAttr("request_id", id)
	}
	rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	rw.Header().Set("X-Request-Id", id)
	if s.opts.Shard != "" {
		rw.Header().Set("X-Shard", s.opts.Shard)
		// Owner check: the router stamps the shard it believes owns the
		// key; a mismatch means the tiers disagree about the ring (stale
		// membership, mismatched defaults) and is worth counting even
		// though any shard can serve any request correctly.
		if want := r.Header.Get("X-Expected-Shard"); want != "" && want != s.opts.Shard {
			s.reg.Counter("serve_shard_misroutes_total").Inc()
		}
	}
	start := time.Now()
	s.mux.ServeHTTP(rw, RequestWithID(r, id))
	dur := time.Since(start)
	route := RouteLabel(r.URL.Path)
	s.reg.Histogram("serve_http_seconds").Observe(dur.Seconds())
	s.reg.Histogram(fmt.Sprintf(`serve_http_request_seconds{route=%q,status="%d"}`, route, rw.code)).Observe(dur.Seconds())
	s.reg.Gauge("serve_http_inflight").Add(-1)
	if rw.code >= 400 {
		s.reg.Counter("serve_http_errors_total").Inc()
	}
	cache := rw.Header().Get("X-Cache")
	if sp != nil {
		sp.SetInt("status", rw.code)
		if cache != "" {
			sp.SetAttr("cache", cache)
		}
		sp.End()
	}
	if s.opts.AccessLog != nil {
		s.opts.AccessLog.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", rw.code),
			slog.Int64("bytes", rw.bytes),
			slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
			slog.String("cache", cache),
		)
	}
}

// reportResponse is the JSON body of /v1/report.
type reportResponse struct {
	Meta
	Params   Params   `json:"params"`
	Sections []string `json:"sections,omitempty"` // empty = full report
	Cache    Status   `json:"cache"`
	// Ledger marks dataset-backed reports whose corpus carries no chain
	// evidence ("absent"): their §4.5 audit is unverifiable rather than
	// silently empty. Omitted for generated corpora.
	Ledger string `json:"ledger,omitempty"`
	// Report must stay the last field: responses are the encoded head of
	// the envelope before it (envelopeHead) and the cached report,
	// encoded once, that closes it.
	Report string `json:"report"`
}

// handleReport serves GET /v1/report[/{section}]: parse and validate the
// run parameters and section names (400 lists the valid vocabulary; an
// unknown ?dataset= id 404s), then serve through the two cache tiers —
// a render-cache hit writes the cached bytes (or answers If-None-Match
// with a zero-body 304) without touching the result cache; a miss gets
// results through the result cache, renders once, and installs the body
// for the next hit. The {section} path element accepts a comma-separated
// list.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sections := splitList(r.PathValue("section"))
	if err := turnup.ValidateSections(sections...); err != nil {
		s.fail(w, r, http.StatusBadRequest, CodeBadParams, err)
		return
	}
	p, err := s.parseParams(r)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, CodeBadParams, err)
		return
	}
	if len(p.Stages) == 0 && len(sections) > 0 {
		// A section request without an explicit ?stages= runs only the
		// stages that section reads (the scheduler adds their transitive
		// deps) instead of all of them on a cold cache. Model stages are
		// dropped under models=false — those sections render empty either
		// way — and if nothing is left the full descriptive run stands in,
		// matching what an unconstrained request computes.
		stages, err := turnup.SectionStages(sections...)
		if err != nil { // unreachable: names validated above
			s.fail(w, r, http.StatusBadRequest, CodeBadParams, err)
			return
		}
		if !p.Models {
			kept := stages[:0]
			for _, st := range stages {
				if !s.modelStage[st] {
					kept = append(kept, st)
				}
			}
			stages = kept
		}
		if len(stages) > 0 {
			p.Stages = stages
		}
	}
	var ledger string
	var snap *Snapshot
	if id := r.URL.Query().Get("dataset"); id != "" {
		if r.URL.Query().Get("scale") != "" {
			s.fail(w, r, http.StatusBadRequest, CodeBadParams,
				errors.New("scale cannot be combined with dataset: uploaded corpora are fixed, scale only parameterises generation"))
			return
		}
		// Pin the dataset snapshot (corpus + shared Index + generation)
		// here, before entering the cache: the run then owns immutable
		// data, so a concurrent DELETE, LRU eviction, or append cannot
		// fail a report already admitted.
		var ok bool
		snap, ok = s.datasets.Snapshot(id)
		if !ok {
			s.fail(w, r, http.StatusNotFound, CodeUnknownDataset, fmt.Errorf("unknown dataset %q (see GET /v1/datasets)", id))
			return
		}
		p.Dataset = snap.Info.ID
		p.Generation = snap.Info.Generation
		ledger = snap.Info.Ledger
		// The report headers carry the explicit §4.5 marker ("absent"
		// means the audit could not verify high-value contracts because
		// the uploaded corpus has no ledger) and the generation this
		// report is computed at.
		w.Header().Set("X-Dataset-Ledger", ledger)
		w.Header().Set("X-Dataset-Generation", strconv.FormatUint(snap.Info.Generation, 10))
	}
	p = p.Canon()
	format, isJSON := "text", wantJSON(r)
	if isJSON {
		format = "json"
	}
	rkey := renderKey(p, sections, format)
	if e, ok := s.rcache.Get(rkey); ok {
		w.Header().Set("X-Cache", string(StatusHit))
		s.writeRendered(w, r, e, p, sections, StatusHit, ledger, isJSON)
		return
	}
	res, status, err := s.cache.Get(r.Context(), p, snap)
	if err != nil {
		if errors.Is(err, ingest.ErrEmptyWindow) {
			s.fail(w, r, http.StatusBadRequest, CodeBadParams, err)
			return
		}
		// Cancellation means shutdown (base context) or a vanished client
		// (request context); neither is a server fault — and it is the
		// one failure a router should retry on a sibling shard.
		code, apiCode := http.StatusInternalServerError, CodeInternal
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code, apiCode = http.StatusServiceUnavailable, CodeShuttingDown
		}
		s.fail(w, r, code, apiCode, err)
		return
	}
	w.Header().Set("X-Cache", string(status))
	body, _ := turnup.RenderString(res, sections...) // names validated above
	e := s.rcache.Put(rkey, p, []byte(body), isJSON)
	s.writeRendered(w, r, e, p, sections, status, ledger, isJSON)
}

// writeRendered serves one report response from a rendered entry — the
// single exit for hits, misses, and the disabled-tier path, so headers
// (ETag, Vary, X-Cache set by the caller, the dataset headers set during
// snapshot pinning) are identical whichever path produced the bytes.
// If-None-Match revalidation answers 304 with zero body before any
// encoding work. A JSON body is the envelope head, encoded per request,
// followed by the entry's pre-encoded report; a text body is the entry's
// Body alone. A gzip client gets the entry's gzip variant, with the head
// spliced in, so no response deflates anything. An entry without a
// variant (under 256 B, one that gzip does not shrink, or any entry of
// the disabled tier, which builds no variants) is served identity to
// every client, since compressing it per request would cost a fresh
// deflate writer for what the variant exists to avoid.
func (s *Server) writeRendered(w http.ResponseWriter, r *http.Request, e *Rendered, p Params, sections []string, status Status, ledger string, isJSON bool) {
	h := w.Header()
	h.Add("Vary", "Accept-Encoding")
	h.Set("ETag", e.ETag)
	if etagMatch(r.Header.Get("If-None-Match"), e.ETag) {
		s.reg.Counter("serve_http_304_total").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var head []byte
	if isJSON {
		var err error
		head, err = envelopeHead(reportResponse{Meta: s.meta(r), Params: p, Sections: sections, Cache: status, Ledger: ledger})
		if err != nil {
			s.fail(w, r, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		h.Set("Content-Type", "application/json")
	} else {
		h.Set("Content-Type", "text/plain; charset=utf-8")
	}
	if e.Gzip != nil && acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		h.Set("Content-Length", strconv.Itoa(gzipSpliceLen(head, e.Gzip)))
		_ = writeGzipSplice(w, head, e.Body, e.Gzip)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(head)+len(e.Body)))
	_, _ = w.Write(head)
	_, _ = w.Write(e.Body)
}

// envelopeHead encodes resp, whose Report is empty, up to the report
// value: what json.Encoder writes for resp minus the `""}` and newline
// that close it. Report is reportResponse's last field, so the head
// followed by a JSON entry's Body is byte for byte the encoder's output
// for the whole envelope.
func envelopeHead(resp reportResponse) ([]byte, error) {
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return b[:len(b)-len(`""}`)], nil
}

// etagMatch implements If-None-Match for GET: "*" matches anything, and
// validators compare weakly (a W/ prefix on either side is ignored) —
// the correct comparison for 304 revalidation per RFC 9110 §13.1.2.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

// MaxK is the largest accepted latent class count (?k= and -default-k):
// the top of the paper's AIC/BIC sweep, 2..16 classes. A larger k is a
// client error, answered 400 before a run slot is taken.
const MaxK = 16

// parseParams extracts and validates the run parameters from the query
// string. Unknown stage names and model stages under models=false are
// rejected here — before a corpus is generated — with the same
// vocabulary-listing errors the CLIs print.
func (s *Server) parseParams(r *http.Request) (Params, error) {
	q := r.URL.Query()
	p := Params{Seed: 1, Scale: s.opts.DefaultScale, K: s.opts.DefaultK, Models: true}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed %q: want an unsigned integer", v)
		}
		p.Seed = n
	}
	if v := q.Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return p, fmt.Errorf("bad scale %q: want a number", v)
		}
		p.Scale = f
	}
	// Written so that NaN, which fails every comparison, is rejected too.
	if !(p.Scale > 0 && p.Scale <= s.opts.MaxScale) {
		return p, fmt.Errorf("scale %g out of range (0, %g]", p.Scale, s.opts.MaxScale)
	}
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > MaxK {
			return p, fmt.Errorf("bad k %q: want an integer in [1, %d]", v, MaxK)
		}
		p.K = n
	}
	if v := q.Get("models"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return p, fmt.Errorf("bad models %q: want a boolean", v)
		}
		p.Models = b
	}
	p.Stages = splitList(q.Get("stages"))
	if err := turnup.ValidateStages(p.Stages...); err != nil {
		return p, err
	}
	if !p.Models {
		for _, st := range p.Stages {
			if s.modelStage[st] {
				return p, fmt.Errorf("stage %q is a model stage and unavailable with models=false", st)
			}
		}
	}
	p.Window = q.Get("window")
	p.AsOf = q.Get("as-of")
	if p.Window != "" || p.AsOf != "" {
		if q.Get("dataset") == "" {
			return p, errors.New("window and as-of require ?dataset=: generated corpora are identified by seed and scale, not by time")
		}
		if err := ingest.ValidateWindow(p.Window, p.AsOf); err != nil {
			return p, err
		}
	}
	return p, nil
}

// sectionsResponse is the JSON body of /v1/sections. The list lives in a
// named field (not a bare top-level array) so the contract can grow —
// adding metadata or per-section detail stays backward compatible.
type sectionsResponse struct {
	Meta
	Sections []string `json:"sections"`
}

// handleSections serves the report-section vocabulary. Like the stage
// table, it is a few hundred bytes, served identity to every client: a
// per-request deflate writer would allocate thousands of times what it
// saves. Vary is still set, as on every negotiable response.
func (s *Server) handleSections(w http.ResponseWriter, r *http.Request) {
	w.Header().Add("Vary", "Accept-Encoding")
	if wantJSON(r) {
		writeJSON(w, http.StatusOK, sectionsResponse{Meta: s.meta(r), Sections: turnup.Sections()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, strings.Join(turnup.Sections(), "\n"))
}

// stageJSON is one stage row of /v1/stages.
type stageJSON struct {
	Name  string   `json:"name"`
	Deps  []string `json:"deps,omitempty"`
	Model bool     `json:"model,omitempty"`
}

// stagesResponse is the JSON body of /v1/stages — an object, like every
// other v1 envelope, not a bare array.
type stagesResponse struct {
	Meta
	Stages []stageJSON `json:"stages"`
}

// handleStages serves the analysis stage DAG (name, deps, model tier),
// identity to every client (see handleSections).
func (s *Server) handleStages(w http.ResponseWriter, r *http.Request) {
	stages := turnup.Stages()
	w.Header().Add("Vary", "Accept-Encoding")
	if wantJSON(r) {
		out := make([]stageJSON, len(stages))
		for i, st := range stages {
			out[i] = stageJSON{Name: st.Name, Deps: st.Deps, Model: st.Model}
		}
		writeJSON(w, http.StatusOK, stagesResponse{Meta: s.meta(r), Stages: out})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, st := range stages {
		fmt.Fprintf(w, "%s deps=%s model=%t\n", st.Name, strings.Join(st.Deps, ","), st.Model)
	}
}

// healthResponse is the JSON body of /healthz?format=json. Meta supplies
// the version (and shard, when sharded) alongside the request id.
type healthResponse struct {
	Status string `json:"status"`
	Meta
	UptimeSeconds float64 `json:"uptime_seconds"`
	Cached        int     `json:"cached"`
	CacheBytes    int64   `json:"cache_bytes"`
	Rendered      int     `json:"rendered"`
	RenderedBytes int64   `json:"rendered_bytes"`
	Datasets      int     `json:"datasets"`
}

// handleHealthz reports liveness plus a little state: the build version,
// uptime, the number of cached results, and the number of stored datasets
// — as text by default, as JSON under ?format=json or Accept.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if wantJSON(r) {
		writeJSON(w, http.StatusOK, healthResponse{
			Status:        "ok",
			Meta:          s.meta(r),
			UptimeSeconds: time.Since(s.start).Seconds(),
			Cached:        s.cache.Len(),
			CacheBytes:    s.cache.Bytes(),
			Rendered:      s.rcache.Len(),
			RenderedBytes: s.rcache.Bytes(),
			Datasets:      s.datasets.Len(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok version=%s uptime=%s cached=%d cache_bytes=%d rendered=%d datasets=%d\n",
		version.String(), time.Since(s.start).Round(time.Second), s.cache.Len(), s.cache.Bytes(), s.rcache.Len(), s.datasets.Len())
}

// RouteKey derives the consistent-hash routing token for a report
// request, shared with the router tier so routing and caching agree:
// dataset-backed reports route by their dataset id (the same token
// uploads route by, so a report always lands where its dataset lives),
// and generated reports route by the canonical Params cache key. Parse
// failures fall back to defaults — the owning shard will answer the 400;
// the router only needs the mapping to be deterministic.
func RouteKey(r *http.Request, defaultScale float64, defaultK int) string {
	q := r.URL.Query()
	if id := q.Get("dataset"); id != "" {
		return id
	}
	p := Params{Seed: 1, Scale: defaultScale, K: defaultK, Models: true}
	if n, err := strconv.ParseUint(q.Get("seed"), 10, 64); err == nil {
		p.Seed = n
	}
	if f, err := strconv.ParseFloat(q.Get("scale"), 64); err == nil {
		p.Scale = f
	}
	if n, err := strconv.Atoi(q.Get("k")); err == nil {
		p.K = n
	}
	if b, err := strconv.ParseBool(q.Get("models")); err == nil {
		p.Models = b
	}
	p.Stages = splitList(q.Get("stages"))
	return p.Canon().Key()
}

// wantJSON decides the response format: ?format= wins (json or text),
// then an Accept header naming application/json.
func wantJSON(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "json":
		return true
	case "text":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// splitList parses a comma-separated value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
