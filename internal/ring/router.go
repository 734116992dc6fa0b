package ring

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"turnup"
	"turnup/internal/obs"
	"turnup/internal/serve"
	"turnup/internal/version"
)

// RouterOptions configures a Router. The zero value is unusable — at
// least Shards is required; everything else defaults sanely.
type RouterOptions struct {
	Shards []string // shard base URLs (also their ring names), e.g. http://127.0.0.1:8101
	VNodes int      // virtual nodes per shard (default 128)

	// RF is the dataset replication factor: uploads are written to the
	// owner plus RF-1 ring successors, so an ejection does not lose the
	// only copy (default 1 — owner only).
	RF int
	// Retries bounds additional attempts after a connection error or a
	// retryable (shutting_down) shard response (default 2). Each retry
	// targets the next distinct shard clockwise and backs off first.
	Retries int
	// RetryBackoff is the first retry's delay; it doubles per attempt
	// (default 25ms).
	RetryBackoff time.Duration
	// HedgeDelay floors the hedged-request delay and stands in for it
	// until enough report latencies accumulate to derive a p99
	// (default 100ms).
	HedgeDelay time.Duration
	// HotThreshold is how many times a report key must be seen before
	// its requests are hedged (default 3); hedging every one-off key
	// would double cold-run load for no latency win.
	HotThreshold int

	// DefaultScale / DefaultK mirror the shards' parameter defaults so
	// an implicit and an explicit default route to the same shard
	// (defaults 0.05 / 12, hfserved's own).
	DefaultScale float64
	DefaultK     int
	// MaxDatasetBytes bounds upload bodies at the router, mirroring the
	// shards' limit (default 256 MiB).
	MaxDatasetBytes int64

	Client    *http.Client  // forwarding client (default: 120s timeout)
	Metrics   *obs.Registry // router_* metrics; fresh when nil
	AccessLog *slog.Logger  // one line per routed request (nil = none)
}

// Router is the consistent-hash routing tier: an http.Handler that owns
// a Ring and forwards /v1/* requests to owning shards. It serves its own
// /healthz (ring membership view) and /metrics; everything else is
// proxied. Request ids propagate end to end: an inbound X-Request-Id is
// honoured (sanitised), the id is forwarded to the shard and echoed on
// the router's response, so client, router log, and shard log join on
// one id.
type Router struct {
	opts   RouterOptions
	ring   *Ring
	client *http.Client
	reg    *obs.Registry
	mux    *http.ServeMux
	start  time.Time
	hot    hotTracker
}

// NewRouter builds a Router over opts.Shards. Health probing is separate
// — wire a HealthChecker to Ring() — so tests can drive membership
// directly.
func NewRouter(opts RouterOptions) (*Router, error) {
	ring, err := New(opts.Shards, opts.VNodes)
	if err != nil {
		return nil, err
	}
	if opts.RF <= 0 {
		opts.RF = 1
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 25 * time.Millisecond
	}
	if opts.HedgeDelay <= 0 {
		opts.HedgeDelay = 100 * time.Millisecond
	}
	if opts.HotThreshold <= 0 {
		opts.HotThreshold = 3
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
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 120 * time.Second}
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	rt := &Router{
		opts:   opts,
		ring:   ring,
		client: opts.Client,
		reg:    opts.Metrics,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		hot:    hotTracker{counts: make(map[string]int)},
	}
	rt.reg.Gauge(fmt.Sprintf(`turnup_build_info{version=%q}`, version.String())).Set(1)
	rt.mux.HandleFunc("GET /v1/report", rt.handleReport)
	rt.mux.HandleFunc("GET /v1/report/{section}", rt.handleReport)
	rt.mux.HandleFunc("POST /v1/datasets", rt.handleUpload)
	rt.mux.HandleFunc("GET /v1/datasets", rt.handleList)
	rt.mux.HandleFunc("DELETE /v1/datasets/{id}", rt.handleDelete)
	rt.mux.HandleFunc("POST /v1/datasets/{id}/events", rt.handleEvents)
	rt.mux.HandleFunc("GET /v1/sections", rt.handleVocab)
	rt.mux.HandleFunc("GET /v1/stages", rt.handleVocab)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.Handle("GET /metrics", obs.MetricsHandler(rt.reg))
	return rt, nil
}

// Ring exposes the membership (health checker wiring and tests).
func (rt *Router) Ring() *Ring { return rt.ring }

// statusWriter mirrors serve's: response code + bytes for the log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// ServeHTTP applies the request-observability contract (same as the
// shard tier: id, per-route metrics, access log) and dispatches.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := serve.RequestID(r)
	rt.reg.Counter("router_http_requests_total").Inc()
	rt.reg.Gauge("router_http_inflight").Add(1)
	rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	rw.Header().Set("X-Request-Id", id)
	start := time.Now()
	rt.mux.ServeHTTP(rw, requestWithID(r, id))
	dur := time.Since(start)
	route := serve.RouteLabel(r.URL.Path)
	rt.reg.Histogram(fmt.Sprintf(`router_http_request_seconds{route=%q,status="%d"}`, route, rw.code)).Observe(dur.Seconds())
	rt.reg.Gauge("router_http_inflight").Add(-1)
	if rw.code >= 400 {
		rt.reg.Counter("router_http_errors_total").Inc()
	}
	if rt.opts.AccessLog != nil {
		rt.opts.AccessLog.LogAttrs(r.Context(), slog.LevelInfo, "route",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", rw.code),
			slog.Int64("bytes", rw.bytes),
			slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
			slog.String("shard", rw.Header().Get("X-Shard")),
			slog.Bool("hedged", rw.Header().Get("X-Hedged") != ""),
		)
	}
}

// requestWithID stamps id into the forwarded header set and the context,
// so handlers and the proxied request agree on it.
func requestWithID(r *http.Request, id string) *http.Request {
	r2 := r.Clone(r.Context())
	r2.Header.Set("X-Request-Id", id)
	return serve.RequestWithID(r2, id)
}

// meta assembles the router's own envelope metadata (its error responses
// and /healthz; proxied responses carry the shard's).
func (rt *Router) meta(r *http.Request) serve.Meta {
	return serve.Meta{RequestID: serve.RequestIDFromContext(r.Context()), Version: version.String()}
}

// fail writes the shared API v1 error envelope.
func (rt *Router) fail(w http.ResponseWriter, r *http.Request, status int, code, message string) {
	serve.WriteError(w, r, status, code, message, rt.meta(r))
}

// forward issues one proxied request: the inbound method, path, and
// query against shard's base URL, headers copied (hop-by-hop dropped),
// the expected owner stamped for the shard-side misroute check.
func (rt *Router) forward(ctx context.Context, shard string, r *http.Request, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, shard+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	for k, vv := range r.Header {
		if k == "Connection" || k == "Keep-Alive" || k == "Upgrade" {
			continue
		}
		req.Header[k] = vv
	}
	req.Header.Set("X-Expected-Shard", shard)
	start := time.Now()
	resp, err := rt.client.Do(req)
	rt.reg.Histogram(fmt.Sprintf(`router_proxy_seconds{shard=%q}`, shard)).Observe(time.Since(start).Seconds())
	if err != nil {
		rt.reg.Counter("router_forward_errors_total").Inc()
	}
	return resp, err
}

// retryableResp reports whether a shard response marks a failure worth
// trying on the next shard — the structured error contract's payoff: the
// router branches on X-Error-Code, never on message prose.
func retryableResp(resp *http.Response) bool {
	return resp.StatusCode >= 500 && serve.RetryableCode(resp.Header.Get("X-Error-Code"))
}

// relay copies a shard response to the client. X-Request-Id is already
// set (same id — the shard echoes what the router forwarded); X-Shard is
// backfilled for shards running without -shard.
func relay(w http.ResponseWriter, resp *http.Response, shard string, hedged bool) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		if k == "X-Request-Id" || k == "Connection" {
			continue
		}
		h[k] = vv
	}
	if h.Get("X-Shard") == "" {
		h.Set("X-Shard", shard)
	}
	if hedged {
		h.Set("X-Hedged", "true")
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// outcome is one forwarding attempt's result.
type outcome struct {
	resp   *http.Response
	err    error
	shard  string
	hedged bool
}

// proxy forwards r to the candidate shards with bounded retry and, when
// hedge is set, a second racing request to the next shard once the
// hedge delay elapses without a primary response. The first acceptable
// response wins; losers are cancelled and drained. body is replayed per
// attempt (nil for GETs).
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, cands []string, body []byte, hedge bool) {
	if len(cands) == 0 {
		rt.fail(w, r, http.StatusServiceUnavailable, serve.CodeShardUnavailable, "no healthy shard")
		return
	}
	maxAttempts := rt.opts.Retries + 1

	results := make(chan outcome, maxAttempts+1)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	inflight := 0
	next := 0 // next candidate index to try
	launch := func(hedged bool) {
		shard := cands[next%len(cands)]
		next++
		inflight++
		ctx, cancel := context.WithCancel(r.Context())
		cancels = append(cancels, cancel)
		go func() {
			resp, err := rt.forward(ctx, shard, r, body)
			results <- outcome{resp: resp, err: err, shard: shard, hedged: hedged}
		}()
	}

	launch(false)
	attempts := 1
	hedgeFired := false
	var hedgeTimer <-chan time.Time
	if hedge && len(cands) > 1 {
		hedgeTimer = time.After(rt.hedgeDelay())
	}
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			if next < len(cands) {
				hedgeFired = true
				rt.reg.Counter("router_hedges_total").Inc()
				launch(true)
			}
		case out := <-results:
			inflight--
			acceptable := out.err == nil && !retryableResp(out.resp)
			if acceptable {
				if out.hedged {
					rt.reg.Counter("router_hedge_wins_total").Inc()
				}
				relay(w, out.resp, out.shard, hedgeFired)
				// Drain any straggler so its connection is reusable.
				for ; inflight > 0; inflight-- {
					go func() {
						if s := <-results; s.resp != nil {
							io.Copy(io.Discard, s.resp.Body)
							s.resp.Body.Close()
						}
					}()
				}
				return
			}
			if out.resp != nil {
				io.Copy(io.Discard, out.resp.Body)
				out.resp.Body.Close()
			}
			// Retry on the next shard clockwise, if budget and candidates
			// remain; a hedged attempt already in flight still counts as
			// hope, so only give up when nothing is pending.
			if attempts < maxAttempts && next < len(cands) {
				rt.reg.Counter("router_retries_total").Inc()
				backoff := rt.opts.RetryBackoff << (attempts - 1)
				select {
				case <-time.After(backoff):
				case <-r.Context().Done():
					rt.fail(w, r, http.StatusServiceUnavailable, serve.CodeShardUnavailable, "client gone during retry")
					return
				}
				attempts++
				launch(false)
				continue
			}
			if inflight == 0 {
				status := http.StatusServiceUnavailable
				msg := "all shard attempts failed"
				if out.err != nil {
					msg = out.err.Error()
				}
				rt.fail(w, r, status, serve.CodeShardUnavailable, msg)
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// hedgeDelay derives the hedge trigger from observed report latency: the
// p99 of router_report_seconds once it has enough samples, floored (and
// stood in for, before that) by the configured HedgeDelay, capped at 2s.
func (rt *Router) hedgeDelay() time.Duration {
	h := rt.reg.Histogram("router_report_seconds")
	if h.Count() >= 32 {
		if p99 := h.Quantile(0.99); p99 > 0 {
			d := time.Duration(p99 * float64(time.Second))
			if d < rt.opts.HedgeDelay {
				d = rt.opts.HedgeDelay
			}
			if d > 2*time.Second {
				d = 2 * time.Second
			}
			return d
		}
	}
	return rt.opts.HedgeDelay
}

// hotTracker counts report-key sightings with bounded amnesia: the map
// resets once it holds 8192 keys, so a key-scanning client cannot grow
// it without bound and steady hot keys re-qualify within a few requests.
type hotTracker struct {
	mu     sync.Mutex
	counts map[string]int
}

// touch records one sighting and returns the running count.
func (t *hotTracker) touch(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.counts) >= 8192 {
		t.counts = make(map[string]int)
	}
	t.counts[key]++
	return t.counts[key]
}

// handleReport routes GET /v1/report* by the shared routing key. Hot
// keys (seen HotThreshold+ times) are hedged: reports are idempotent
// reads, so racing a second shard trades duplicate work for tail
// latency, exactly the "hot key during a demand spike" case.
func (rt *Router) handleReport(w http.ResponseWriter, r *http.Request) {
	key := serve.RouteKey(r, rt.opts.DefaultScale, rt.opts.DefaultK)
	hot := rt.hot.touch(key) >= rt.opts.HotThreshold
	cands := rt.ring.Owners(key, rt.opts.Retries+2)
	start := time.Now()
	rt.proxy(w, r, cands, nil, hot)
	rt.reg.Histogram("router_report_seconds").Observe(time.Since(start).Seconds())
}

// handleVocab proxies the static registries (/v1/sections, /v1/stages)
// to the key-owner of the path — identical on every shard, so the path
// is as good a spreading key as any.
func (rt *Router) handleVocab(w http.ResponseWriter, r *http.Request) {
	rt.proxy(w, r, rt.ring.Owners(r.URL.Path, rt.opts.Retries+1), nil, false)
}

// handleUpload parses the upload enough to digest it, then forwards the
// raw body to the digest's owner (and RF-1 successors). Parsing at the
// router is the price of content-addressed ownership: the shard a
// dataset lives on must be a pure function of its bytes, or ?dataset=
// reports could not be routed without a directory service.
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.opts.MaxDatasetBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		status, code := serve.UploadFailure(err)
		rt.fail(w, r, status, code, err.Error())
		return
	}
	pr := r.Clone(r.Context())
	pr.Body = io.NopCloser(bytes.NewReader(raw))
	d, err := serve.DecodeUpload(w, pr, rt.opts.MaxDatasetBytes)
	if err != nil {
		status, code := serve.UploadFailure(err)
		rt.fail(w, r, status, code, err.Error())
		return
	}
	digest, _ := d.Digest()
	key := serve.DatasetID(digest)
	owners := rt.ring.Owners(key, rt.opts.RF)
	if len(owners) == 0 {
		rt.fail(w, r, http.StatusServiceUnavailable, serve.CodeShardUnavailable, "no healthy shard")
		return
	}
	// Replicas first (concurrently, errors counted but not fatal — the
	// owner's response is the contract), then the owner's answer relays.
	// Replicas receive the compact binary form — already parsed, the
	// encode is cheap, and RF-1 copies of a CSV/zip body are the larger
	// fan-out cost — under a cloned request carrying the binary
	// Content-Type. The owner gets the client's original bytes, so its
	// response reflects exactly what was uploaded.
	var wg sync.WaitGroup
	if len(owners) > 1 {
		var bin bytes.Buffer
		if err := turnup.WriteBinary(&bin, d); err != nil {
			rt.fail(w, r, http.StatusInternalServerError, serve.CodeInternal, err.Error())
			return
		}
		rr := r.Clone(r.Context())
		rr.Header = r.Header.Clone()
		rr.Header.Set("Content-Type", turnup.ContentTypeBinary)
		rr.Header.Del("Content-Length")
		for _, replica := range owners[1:] {
			wg.Add(1)
			go func(shard string) {
				defer wg.Done()
				resp, err := rt.forward(rr.Context(), shard, rr, bin.Bytes())
				if err != nil {
					rt.reg.Counter("router_replica_errors_total").Inc()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 400 {
					rt.reg.Counter("router_replica_errors_total").Inc()
				}
			}(replica)
		}
	}
	rt.proxy(w, r, owners[:1], raw, false)
	wg.Wait()
}

// handleEvents routes POST /v1/datasets/{id}/events by the dataset id —
// the same key uploads and reports route by, so an append always lands on
// the shard holding the dataset it extends. Like uploads, the raw body is
// replayed to the RF-1 replica successors (concurrently; failures counted,
// not fatal) so replicas advance generation in step with the owner, and
// the owner's response is the contract.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.opts.MaxDatasetBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		status, code := serve.UploadFailure(err)
		rt.fail(w, r, status, code, err.Error())
		return
	}
	id := r.PathValue("id")
	owners := rt.ring.Owners(id, rt.opts.RF)
	if len(owners) == 0 {
		rt.fail(w, r, http.StatusServiceUnavailable, serve.CodeShardUnavailable, "no healthy shard")
		return
	}
	var wg sync.WaitGroup
	for _, replica := range owners[1:] {
		wg.Add(1)
		go func(shard string) {
			defer wg.Done()
			resp, err := rt.forward(r.Context(), shard, r, raw)
			if err != nil {
				rt.reg.Counter("router_replica_errors_total").Inc()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 400 {
				rt.reg.Counter("router_replica_errors_total").Inc()
			}
		}(replica)
	}
	rt.proxy(w, r, owners[:1], raw, false)
	wg.Wait()
}

// handleDelete routes DELETE /v1/datasets/{id} to every shard that could
// hold a copy (owner plus RF-1 successors); the owner's status answers.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owners := rt.ring.Owners(id, rt.opts.RF)
	if len(owners) == 0 {
		rt.fail(w, r, http.StatusServiceUnavailable, serve.CodeShardUnavailable, "no healthy shard")
		return
	}
	for _, replica := range owners[1:] {
		resp, err := rt.forward(r.Context(), replica, r, nil)
		if err != nil {
			rt.reg.Counter("router_replica_errors_total").Inc()
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rt.proxy(w, r, owners[:1], nil, false)
}

// mergedList is the router's GET /v1/datasets body: the union of every
// healthy shard's stored datasets, deduplicated by digest, each entry
// annotated with the shard holding it.
type mergedList struct {
	serve.Meta
	Datasets []serve.DatasetInfo `json:"datasets"`
}

// handleList scatter-gathers the dataset listing across healthy shards.
// Shards are asked for JSON regardless of what the client negotiated;
// the router re-renders the merged union in the client's format.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	shards := rt.ring.HealthyShards()
	if len(shards) == 0 {
		rt.fail(w, r, http.StatusServiceUnavailable, serve.CodeShardUnavailable, "no healthy shard")
		return
	}
	type shardList struct {
		shard string
		infos []serve.DatasetInfo
		err   error
	}
	results := make(chan shardList, len(shards))
	for _, shard := range shards {
		go func(shard string) {
			req, err := http.NewRequestWithContext(r.Context(), "GET", shard+"/v1/datasets?format=json", nil)
			if err != nil {
				results <- shardList{shard: shard, err: err}
				return
			}
			req.Header.Set("X-Request-Id", serve.RequestIDFromContext(r.Context()))
			resp, err := rt.client.Do(req)
			if err != nil {
				results <- shardList{shard: shard, err: err}
				return
			}
			defer resp.Body.Close()
			var body struct {
				Datasets []serve.DatasetInfo `json:"datasets"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				results <- shardList{shard: shard, err: err}
				return
			}
			results <- shardList{shard: shard, infos: body.Datasets}
		}(shard)
	}
	byDigest := map[string]serve.DatasetInfo{}
	var failed int
	for range shards {
		out := <-results
		if out.err != nil {
			failed++
			rt.reg.Counter("router_forward_errors_total").Inc()
			continue
		}
		for _, info := range out.infos {
			info.Shard = out.shard
			if _, ok := byDigest[info.Digest]; !ok {
				byDigest[info.Digest] = info
			}
		}
	}
	if failed == len(shards) {
		rt.fail(w, r, http.StatusServiceUnavailable, serve.CodeShardUnavailable, "every shard listing failed")
		return
	}
	merged := make([]serve.DatasetInfo, 0, len(byDigest))
	for _, info := range byDigest {
		merged = append(merged, info)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	if wantJSON(r) {
		serve.WriteJSON(w, http.StatusOK, mergedList{Meta: rt.meta(r), Datasets: merged})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, in := range merged {
		fmt.Fprintf(w, "%s digest=%s users=%d contracts=%d bytes=%d ledger=%s shard=%s\n",
			in.ID, in.Digest, in.Users, in.Contracts, in.Bytes, in.Ledger, in.Shard)
	}
}

// shardHealth is one row of the router's /healthz JSON body.
type shardHealth struct {
	Shard   string `json:"shard"`
	Healthy bool   `json:"healthy"`
}

// routerHealth is the router's /healthz JSON body.
type routerHealth struct {
	Status string `json:"status"`
	serve.Meta
	UptimeSeconds float64       `json:"uptime_seconds"`
	Shards        []shardHealth `json:"shards"`
}

// handleHealthz reports the router's own liveness and its view of the
// ring: 200 while at least one shard is admitted, 503 once none are —
// a router with no shards cannot serve anything.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var rows []shardHealth
	healthy := 0
	for _, s := range rt.ring.Shards() {
		ok := rt.ring.Healthy(s)
		if ok {
			healthy++
		}
		rows = append(rows, shardHealth{Shard: s, Healthy: ok})
	}
	status, code := "ok", http.StatusOK
	if healthy == 0 {
		status, code = "no_healthy_shards", http.StatusServiceUnavailable
	}
	if wantJSON(r) {
		serve.WriteJSON(w, code, routerHealth{
			Status:        status,
			Meta:          rt.meta(r),
			UptimeSeconds: time.Since(rt.start).Seconds(),
			Shards:        rows,
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintf(w, "%s version=%s shards=%d/%d uptime=%s\n",
		status, version.String(), healthy, len(rows), time.Since(rt.start).Round(time.Second))
	for _, row := range rows {
		fmt.Fprintf(w, "%s healthy=%t\n", row.Shard, row.Healthy)
	}
}

// wantJSON mirrors serve's negotiation: ?format= wins, then Accept.
func wantJSON(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "json":
		return true
	case "text":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}
