package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"turnup"
	"turnup/internal/dataset"
	"turnup/internal/ingest"
	"turnup/internal/obs"
	"turnup/internal/ring"
	"turnup/internal/serve"
	"turnup/internal/textmine"
)

// span is one timed call of the traced replay. Spans of one replayed
// request share req; parent is the enclosing span's id (0 = none).
type span struct {
	id, parent, req int
	name            string
	start, end      time.Duration // offsets from the tracer's start
}

// tracer keeps spans in memory until the replay ends. A nil tracer
// records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name and returns the span's id.
func (t *tracer) do(name string, parent, req int, fn func()) int {
	if t == nil {
		fn()
		return 0
	}
	start := time.Since(t.t0)
	fn()
	return t.add(name, parent, req, start, time.Since(t.t0))
}

// span records a call timed by the caller.
func (t *tracer) span(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, req, start.Sub(t.t0), end.Sub(t.t0))
}

func (t *tracer) add(name string, parent, req int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	return id
}

// self returns each span name's self times: a span's duration minus the
// part of it its children cover (overlapping children count once).
func (t *tracer) self() map[string][]time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		covered, at := time.Duration(0), s.start
		for _, c := range cs {
			from, to := max(c.start, at), min(c.end, s.end)
			if to > from {
				covered += to - from
				at = to
			}
		}
		out[s.name] = append(out[s.name], s.end-s.start-covered)
	}
	return out
}

// medianOf returns the median self time of a span name in unit.
func medianOf(self map[string][]time.Duration, name string, unit time.Duration) float64 {
	xs := make([]float64, len(self[name]))
	for i, d := range self[name] {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// write dumps the spans, one per line.
func (t *tracer) write(w io.Writer) {
	for _, s := range t.spans {
		fmt.Fprintf(w, "span id=%d parent=%d req=%d name=%s start_us=%d dur_us=%d\n",
			s.id, s.parent, s.req, s.name, s.start.Microseconds(), (s.end - s.start).Microseconds())
	}
}

// layerSet is what one replay contributes: per-layer metrics and, for
// the pipeline replay, the stage table.
type layerSet map[string]float64

// stageRow is one stage of the table printed with the traced run.
type stageRow struct {
	name     string
	p1, pN   float64 // self ms at GOMAXPROCS=1 and nproc
	critical bool
}

// replaySizes: the named workload replays its own sequence at full size;
// every other layer group runs a short slice of its workload's sequence,
// so every traced run reports every per-layer metric.
type replaySize struct{ seeds, requests, batches int }

var (
	fullSize  = replaySize{seeds: 2, requests: 3000, batches: 40}
	shortSize = replaySize{seeds: 1, requests: 300, batches: 5}
)

// traced runs the in-process replays and assembles the per-layer metrics.
// The named workload's replay group runs untraced once to warm up, then
// traced, then untraced again; the gap between the last two is the
// tracing overhead.
func (b *bench) traced(ctx context.Context, name string, o *outcome) (layerSet, []stageRow, error) {
	groups := []struct {
		workload string
		run      func(t *tracer, size replaySize) (layerSet, error)
	}{
		{"cold-pipeline", func(t *tracer, sz replaySize) (layerSet, error) { return b.replayPipeline(t, o, sz) }},
		{"hot-read", func(t *tracer, sz replaySize) (layerSet, error) { return b.replayServe(t, o, sz) }},
		{"ingest-mixed", func(t *tracer, sz replaySize) (layerSet, error) { return b.replayIngest(t, o, sz) }},
		{"ring", func(t *tracer, sz replaySize) (layerSet, error) { return b.replayRing(t, sz) }},
	}
	out := layerSet{}
	var buf bytes.Buffer
	for _, g := range groups {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		own := g.workload == name
		size := shortSize
		if own {
			size = fullSize
			if _, err := g.run(nil, size); err != nil {
				return nil, nil, err
			}
		}
		t := newTracer()
		ls, err := g.run(t, size)
		if err != nil {
			return nil, nil, err
		}
		if own {
			traced := time.Since(t.t0)
			t0 := time.Now()
			if _, err := g.run(nil, size); err != nil {
				return nil, nil, err
			}
			untraced := time.Since(t0)
			out["trace.overhead_frac"] = (traced - untraced).Seconds() / untraced.Seconds()
		}
		out.merge(ls)
		t.write(&buf)
	}
	if b.spans != "" {
		if err := os.WriteFile(b.spans, buf.Bytes(), 0o644); err != nil {
			return nil, nil, err
		}
	}
	stages, err := b.stageTable(out)
	if err != nil {
		return nil, nil, err
	}
	b.serverLayers(o, out)
	return out, stages, nil
}

func (l layerSet) merge(m layerSet) {
	for k, v := range m {
		l[k] = v
	}
}

// ---- pipeline: generate, classify, group build, the stage DAG, sizing, render ----

// pipelineSeeds are the cold-pipeline's completed seeds when it is the
// named workload, else seeds drawn from the workload seed.
func (b *bench) pipelineSeeds(o *outcome, n int) []uint64 {
	var seeds []uint64
	if r, ok := o.replay.(coldReplay); ok {
		seeds = r.seeds
	}
	if len(seeds) < n {
		seeds = append(seeds, uniqueSeeds(rand.New(rand.NewSource(b.seed)), n)...)
	}
	return seeds[:n]
}

func (b *bench) replayPipeline(t *tracer, o *outcome, sz replaySize) (layerSet, error) {
	for req, seed := range b.pipelineSeeds(o, sz.seeds) {
		var err error
		root := t.begin()
		var d *turnup.Dataset
		t.do("market.generate", root, req, func() {
			d, err = turnup.GenerateCtx(context.Background(), turnup.Config{Seed: seed, Scale: scale})
		})
		if err != nil {
			return nil, err
		}
		t.do("textmine.classify", root, req, func() {
			for _, c := range d.Contracts {
				textmine.Classify(c.MakerObligation)
				textmine.Classify(c.TakerObligation)
			}
		})
		ix := turnup.NewIndex(d)
		t.do("analysis.groups", root, req, func() { ix.ByMonth() })
		var res *turnup.Results
		var ot *obs.Tracer
		if t != nil {
			ot = obs.NewTracer("suite")
		}
		suite := t.do("analysis.suite", root, req, func() {
			res, err = turnup.RunCtx(context.Background(), d, turnup.RunOptions{
				Seed: seed, LatentClassK: coldK, Index: ix, Trace: ot})
		})
		if err != nil {
			return nil, err
		}
		t.stageSpans(ot, suite, req, "pN")
		t.do("cache.sizebytes", root, req, func() { res.SizeBytes() })
		t.do("report.render", root, req, func() { _, err = turnup.RenderString(res) })
		t.do("report.render_section", root, req, func() { _, err = turnup.RenderString(res, "activities") })
		if err != nil {
			return nil, err
		}
		t.finish(root, "request", req)
	}
	if t == nil {
		return nil, nil
	}
	self := t.self()
	return layerSet{
		"market.generate_ms":       medianOf(self, "market.generate", time.Millisecond),
		"textmine.classify_ms":     medianOf(self, "textmine.classify", time.Millisecond),
		"analysis.groups_ms":       medianOf(self, "analysis.groups", time.Millisecond),
		"cache.sizebytes_ms":       medianOf(self, "cache.sizebytes", time.Millisecond),
		"report.render_ms":         medianOf(self, "report.render", time.Millisecond),
		"report.render_section_ms": medianOf(self, "report.render_section", time.Millisecond),
		"analysis.suite_ms.pN":     medianWall(t, "analysis.suite"),
	}.withStages(self, "pN"), nil
}

// begin reserves a parent span id for a request whose duration is known
// only at the end (see finish).
func (t *tracer) begin() int {
	if t == nil {
		return 0
	}
	return t.add("", 0, -1, time.Since(t.t0), 0)
}

// finish closes a span opened by begin.
func (t *tracer) finish(id int, name string, req int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.name, s.req, s.end = name, req, time.Since(t.t0)
}

// stageSpans copies the scheduler's stage spans (children of the suite
// span of the obs tracer) into t under parent, named stage.<tag>.<Stage>.
func (t *tracer) stageSpans(ot *obs.Tracer, parent, req int, tag string) {
	if t == nil || ot == nil {
		return
	}
	root := ot.Finish()
	for _, suite := range root.Children {
		for _, st := range suite.Children {
			t.add("stage."+tag+"."+strings.TrimPrefix(st.Name, "analysis/"), parent, req,
				st.Start.Sub(t.t0), st.Stop.Sub(t.t0))
		}
	}
}

func medianWall(t *tracer, name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.name == name {
			xs = append(xs, float64(s.end-s.start)/float64(time.Millisecond))
		}
	}
	return median(xs)
}

// withStages adds each stage's median self time under the given core
// count tag (p1 or pN).
func (l layerSet) withStages(self map[string][]time.Duration, tag string) layerSet {
	for _, st := range turnup.Stages() {
		l["analysis.stage."+st.Name+"_ms."+tag] = medianOf(self, "stage."+tag+"."+st.Name, time.Millisecond)
	}
	return l
}

// stageTable runs the suite once at GOMAXPROCS=1 for the stage table's p1
// column, and derives the DAG's critical path and busy share from the
// nproc stage times.
func (b *bench) stageTable(out layerSet) ([]stageRow, error) {
	seed := uniqueSeeds(rand.New(rand.NewSource(b.seed)), 1)[0]
	d, err := turnup.Generate(turnup.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	ix := turnup.NewIndex(d)
	ix.ByMonth()
	prev := runtime.GOMAXPROCS(1)
	t := newTracer()
	ot := obs.NewTracer("suite")
	suite := t.do("analysis.suite", 0, 0, func() {
		_, err = turnup.RunCtx(context.Background(), d, turnup.RunOptions{Seed: seed, LatentClassK: coldK, Index: ix, Trace: ot})
	})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	t.stageSpans(ot, suite, 0, "p1")
	out["analysis.suite_ms.p1"] = medianWall(t, "analysis.suite")
	out.withStages(t.self(), "p1")

	// Longest path through the DAG, weighting each stage by its nproc
	// self time.
	stages := turnup.Stages()
	finish := map[string]float64{}
	via := map[string]string{}
	var busy float64
	for _, st := range stages { // canonical order is topological
		w := out["analysis.stage."+st.Name+"_ms.pN"]
		busy += w
		best := 0.0
		for _, dep := range st.Deps {
			if finish[dep] > best {
				best, via[st.Name] = finish[dep], dep
			}
		}
		finish[st.Name] = best + w
	}
	last, cp := "", 0.0
	for n, f := range finish {
		if f > cp || (f == cp && n < last) {
			last, cp = n, f
		}
	}
	onPath := map[string]bool{}
	for n := last; n != ""; n = via[n] {
		onPath[n] = true
	}
	out["analysis.critical_path_ms"] = cp
	if wall := out["analysis.suite_ms.pN"]; wall > 0 {
		out["analysis.busy_frac"] = busy / (wall * float64(b.conns))
	}
	rows := make([]stageRow, len(stages))
	for i, st := range stages {
		rows[i] = stageRow{st.Name, out["analysis.stage."+st.Name+"_ms.p1"], out["analysis.stage."+st.Name+"_ms.pN"], onPath[st.Name]}
	}
	return rows, nil
}

// ---- serve: ServeHTTP per request class, both cache tiers ----

// recorded runs h on a request built from o and returns the response as
// the checks see it.
func recorded(h http.Handler, o *op) *response {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req := httptest.NewRequest(o.method, o.path, body)
	for k, v := range o.header {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return &response{status: rec.Code, header: rec.Result().Header, body: rec.Body.Bytes()}
}

// inProcess fetches a path from h without a network hop.
func inProcess(h http.Handler) func(path string) (*response, error) {
	return func(path string) (*response, error) {
		r := recorded(h, &op{method: "GET", path: path})
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %.200s", path, r.status, r.body)
		}
		return r, nil
	}
}

// classOf names a hit request's class for the serve.* metrics.
func classOf(o *op, r *response) string {
	switch {
	case r.status == http.StatusNotModified:
		return "serve.not_modified"
	case strings.Contains(o.path, "format=json"):
		return "serve.hit_json"
	case r.header.Get("Content-Encoding") == "gzip":
		return "serve.hit_gzip"
	}
	return "serve.hit_text"
}

func (b *bench) replayServe(t *tracer, o *outcome, sz replaySize) (layerSet, error) {
	var ks *keyspace
	var ops []*op
	if r, ok := o.replay.(hotReplay); ok {
		ks, ops = r.ks, r.ops
	} else {
		var err error
		if ks, err = newHotKeyspace(hotKeySeeds[:1]); err != nil {
			return nil, err
		}
	}
	srv := serve.New(serve.Options{})
	if err := warm(inProcess(srv), ks); err != nil {
		return nil, err
	}
	if ops == nil {
		// Built after the warm-up, so revalidations carry the ETags it saw.
		rng := rand.New(rand.NewSource(b.seed))
		for i := 0; i < sz.requests; i++ {
			ops = append(ops, ks.hotOp(rng))
		}
	}
	if len(ops) > sz.requests {
		ops = ops[:sz.requests]
	}
	// The same requests over loopback HTTP: the wire's share is the client
	// latency minus the handler's time for the same request.
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	var wire []float64
	var respBytes int
	for i, op := range ops {
		t0 := time.Now()
		r := recorded(srv, op)
		t1 := time.Now()
		handler := t1.Sub(t0)
		t.span(classOf(op, r), 0, i, t0, t1)
		if err := op.check(r); err != nil {
			return nil, fmt.Errorf("in-process %s: %w", op.path, err)
		}
		respBytes += len(r.body)
		if t != nil && i%4 == 0 {
			t0 := time.Now()
			if _, err := do(context.Background(), c, hs.URL, op); err != nil {
				return nil, err
			}
			wire = append(wire, float64(time.Since(t0)-handler)/float64(time.Microsecond))
		}
	}
	// Both cache tiers' own operations, outside any handler.
	reg := obs.NewRegistry()
	rc := serve.NewRenderCache(0, reg)
	for i, k := range ks.keys {
		key := fmt.Sprintf("%s|%d", k.path(), i)
		p := serve.Params{Seed: k.seed, Scale: scale, K: 12}
		t.do("cache.render_put", 0, -1, func() { rc.Put(key, p, ks.checks[k].want, k.json) })
		for j := 0; j < 20; j++ {
			t.do("cache.render_get", 0, -1, func() { rc.Get(key) })
		}
	}
	res, err := generated(ks.keys[0].seed, 12, false)
	if err != nil {
		return nil, err
	}
	rcache := serve.NewCache(context.Background(), func(context.Context, serve.Params, *serve.Snapshot) (*turnup.Results, error) {
		return res, nil
	}, serve.CacheConfig{}, reg)
	p := serve.Params{Seed: ks.keys[0].seed, Scale: scale, K: 12}
	for j := 0; j < 200; j++ {
		t.do("cache.result_get", 0, -1, func() { _, _, err = rcache.Get(context.Background(), p, nil) })
		if err != nil {
			return nil, err
		}
	}
	if t == nil {
		return nil, nil
	}
	self := t.self()
	return layerSet{
		"serve.hit_text_us":     medianOf(self, "serve.hit_text", time.Microsecond),
		"serve.hit_json_us":     medianOf(self, "serve.hit_json", time.Microsecond),
		"serve.hit_gzip_us":     medianOf(self, "serve.hit_gzip", time.Microsecond),
		"serve.not_modified_us": medianOf(self, "serve.not_modified", time.Microsecond),
		"serve.wire_us":         median(wire),
		"serve.resp_bytes":      float64(respBytes) / float64(len(ops)),
		"cache.render_put_us":   medianOf(self, "cache.render_put", time.Microsecond),
		"cache.render_get_us":   medianOf(self, "cache.render_get", time.Microsecond),
		"cache.result_get_us":   medianOf(self, "cache.result_get", time.Microsecond),
	}, nil
}

// ---- ingest: decode, validate, apply, Index.Append, Store.Append, Window ----

func (b *bench) replayIngest(t *tracer, o *outcome, sz replaySize) (layerSet, error) {
	var corpus []byte
	var batches [][]byte
	if r, ok := o.replay.(ingestReplay); ok {
		corpus, batches = r.corpus, r.batches
	} else {
		d, err := turnup.Generate(turnup.Config{Seed: ingestCorpusSeed, Scale: scale})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := turnup.WriteBinary(&buf, d); err != nil {
			return nil, err
		}
		corpus = buf.Bytes()
		base := ingest.MaxCreated(d)
		for i := 0; i < sz.batches; i++ {
			batches = append(batches, eventBatch(i+1, base.Add(time.Duration(i+1)*time.Second)))
		}
	}
	if len(batches) > sz.batches {
		batches = batches[:sz.batches]
	}
	var d *turnup.Dataset
	var err error
	t.do("dataset.decode_binary", 0, -1, func() { d, err = turnup.ReadBinary(bytes.NewReader(corpus)) })
	if err != nil {
		return nil, err
	}
	t.do("dataset.digest", 0, -1, func() { d.Digest() })
	var contracts, users bytes.Buffer
	if err := dataset.WriteContractsCSV(&contracts, d.Contracts); err != nil {
		return nil, err
	}
	if err := dataset.WriteUsersCSV(&users, d.Users); err != nil {
		return nil, err
	}
	t.do("dataset.read_csv", 0, -1, func() { _, err = turnup.ReadCSV(&contracts, &users) })
	if err != nil {
		return nil, err
	}
	store := serve.NewStore(0, 1<<30, obs.NewRegistry())
	info, _, err := store.Add(d)
	if err != nil {
		return nil, err
	}
	ix := turnup.NewIndex(d)
	ix.ByMonth()
	cur := d
	for i, raw := range batches {
		root := t.begin()
		var bt *ingest.Batch
		t.do("ingest.decode", root, i, func() { bt, err = ingest.DecodeBatch("application/x-ndjson", bytes.NewReader(raw)) })
		if err != nil {
			return nil, err
		}
		t.do("ingest.validate", root, i, func() { err = bt.ValidateAgainst(cur) })
		if err != nil {
			return nil, err
		}
		var nd *turnup.Dataset
		t.do("ingest.apply", root, i, func() { nd = ingest.Apply(cur, bt) })
		t.do("analysis.index_append", root, i, func() { ix = ix.Append(nd, bt.Contracts) })
		t.do("store.append", root, i, func() { _, err = store.Append(info.ID, bt) })
		if err != nil {
			return nil, err
		}
		t.do("ingest.window", root, i, func() { _, err = ingest.Window(nd, ingestWindow, "") })
		if err != nil {
			return nil, err
		}
		cur = nd
		t.finish(root, "append", i)
	}
	if t == nil {
		return nil, nil
	}
	self := t.self()
	return layerSet{
		"dataset.decode_binary_ms": medianOf(self, "dataset.decode_binary", time.Millisecond),
		"dataset.digest_ms":        medianOf(self, "dataset.digest", time.Millisecond),
		"dataset.read_csv_ms":      medianOf(self, "dataset.read_csv", time.Millisecond),
		"ingest.decode_us":         medianOf(self, "ingest.decode", time.Microsecond),
		"ingest.validate_us":       medianOf(self, "ingest.validate", time.Microsecond),
		"ingest.apply_us":          medianOf(self, "ingest.apply", time.Microsecond),
		"analysis.index_append_ms": medianOf(self, "analysis.index_append", time.Millisecond),
		"store.append_ms":          medianOf(self, "store.append", time.Millisecond),
		"ingest.window_ms":         medianOf(self, "ingest.window", time.Millisecond),
	}, nil
}

// ---- ring: Owner, Router.ServeHTTP over two in-process shards ----

func (b *bench) replayRing(t *tracer, sz replaySize) (layerSet, error) {
	rng := rand.New(rand.NewSource(b.seed))
	ks, err := newKeyspace(uniqueSeeds(rng, 4), []string{""})
	if err != nil {
		return nil, err
	}
	var shards []*httptest.Server
	var regs []*obs.Registry
	byURL := map[string]http.Handler{}
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		srv := serve.New(serve.Options{Metrics: reg})
		hs := httptest.NewServer(srv)
		defer hs.Close()
		shards, regs = append(shards, hs), append(regs, reg)
		byURL[hs.URL] = srv
	}
	routerReg := obs.NewRegistry()
	rt, err := ring.NewRouter(ring.RouterOptions{Shards: []string{shards[0].URL, shards[1].URL}, Metrics: routerReg})
	if err != nil {
		return nil, err
	}
	if err := warm(inProcess(rt), ks); err != nil {
		return nil, err
	}
	// Built after the warm-up, so revalidations carry the ETags it saw.
	var ops []*op
	for i := 0; i < sz.requests; i++ {
		ops = append(ops, ks.readOp(ks.keys[rng.Intn(len(ks.keys))], hotClasses[rng.Intn(len(hotClasses))]))
	}
	counter := func(regs []*obs.Registry, name string) float64 {
		var s float64
		for _, r := range regs {
			s += float64(r.Counter(name).Value())
		}
		return s
	}
	hits0 := counter(regs, "serve_render_cache_hits_total")
	miss0 := counter(regs, "serve_render_cache_misses_total")
	hedge0 := counter([]*obs.Registry{routerReg}, "router_hedges_total")
	wins0 := counter([]*obs.Registry{routerReg}, "router_hedge_wins_total")
	retry0 := counter([]*obs.Registry{routerReg}, "router_retries_total")
	perShard := map[string]int{}
	keys := map[string]bool{}
	var hop []float64
	for i, op := range ops {
		var r *response
		var routed time.Duration
		t.do("ring.route", 0, i, func() {
			t0 := time.Now()
			r = recorded(rt, op)
			routed = time.Since(t0)
		})
		if err := op.check(r); err != nil {
			return nil, fmt.Errorf("in-process routed %s: %w", op.path, err)
		}
		shard := r.header.Get("X-Shard")
		perShard[shard]++
		keys[serve.RouteKey(httptest.NewRequest("GET", op.path, nil), scale, 12)] = true
		if t != nil && i%4 == 0 {
			h, ok := byURL[shard]
			if !ok {
				return nil, fmt.Errorf("response from unknown shard %q", shard)
			}
			t0 := time.Now()
			recorded(h, op)
			hop = append(hop, float64(routed-time.Since(t0))/float64(time.Millisecond))
		}
	}
	// Owner lookups on their own: the ring's share of a routed request.
	rg, err := ring.New([]string{shards[0].URL, shards[1].URL}, 128)
	if err != nil {
		return nil, err
	}
	var keyList []string
	for k := range keys {
		keyList = append(keyList, k)
	}
	sort.Strings(keyList)
	const lookups = 20000
	t.do("ring.owner", 0, -1, func() {
		for i := 0; i < lookups; i++ {
			rg.Owner(keyList[i%len(keyList)])
		}
	})
	if t == nil {
		return nil, nil
	}
	self := t.self()
	n := float64(len(ops))
	hits := counter(regs, "serve_render_cache_hits_total") - hits0
	miss := counter(regs, "serve_render_cache_misses_total") - miss0
	hedges := counter([]*obs.Registry{routerReg}, "router_hedges_total") - hedge0
	maxShare := 0
	for _, c := range perShard {
		maxShare = max(maxShare, c)
	}
	ls := layerSet{
		"ring.owner_ns":        float64(medianOf(self, "ring.owner", time.Nanosecond)) / lookups,
		"ring.route_us":        medianOf(self, "ring.route", time.Microsecond),
		"ring.hop_ms":          median(hop),
		"ring.hedge_frac":      hedges / n,
		"ring.hedge_win_frac":  0,
		"ring.retries":         counter([]*obs.Registry{routerReg}, "router_retries_total") - retry0,
		"ring.distinct_keys":   float64(len(keys)),
		"ring.shard_max_share": float64(maxShare) / n,
		"ring.shard_hit_ratio": 0,
	}
	if hedges > 0 {
		ls["ring.hedge_win_frac"] = (counter([]*obs.Registry{routerReg}, "router_hedge_wins_total") - wins0) / hedges
	}
	if hits+miss > 0 {
		ls["ring.shard_hit_ratio"] = hits / (hits + miss)
	}
	return ls, nil
}

// ---- server-side counts from the untraced run's /metrics ----

func (b *bench) serverLayers(o *outcome, out layerSet) {
	delta := func(name string) float64 { return sum(o.after, name) - sum(o.before, name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, miss, co := delta("serve_cache_hits_total"), delta("serve_cache_misses_total"), delta("serve_cache_coalesced_total")
	out["cache.result_hit_ratio"] = ratio(hits, hits+miss+co)
	out["cache.coalesced"] = co
	out["cache.result_bytes"] = sum(o.after, "serve_cache_bytes")
	rh, rm := delta("serve_render_cache_hits_total"), delta("serve_render_cache_misses_total")
	out["cache.render_hit_ratio"] = ratio(rh, rh+rm)
	out["cache.render_bytes"] = sum(o.after, "serve_render_cache_bytes")
	out["cache.evictions"] = delta("serve_cache_evictions_total") + delta("serve_render_cache_evictions_total")
	writes := 0.0
	ops := 0.0
	for _, s := range o.samples {
		if s.op.kind == "write" {
			writes++
		}
		if s.err == "" {
			ops++
		}
	}
	out["cache.invalidations_per_write"] = ratio(delta("serve_cache_invalidations_total")+delta("serve_render_cache_invalidations_total"), writes)
	// Each after-scrape forces one GC per process; it is not the load's.
	gcs := delta("runtime_gc_runs_total") - float64(len(o.after))
	out["runtime.gc_cycles_per_kop"] = ratio(gcs*1000, ops)
	out["runtime.gc_pause_ms"] = delta("runtime_gc_pause_total_seconds") * 1000
	out["gen.late_p99_ms"] = o.lateP99()
}

// printTraced writes the per-layer metrics and the stage table.
func printTraced(w io.Writer, layers layerSet, stages []stageRow) {
	fmt.Fprintf(w, "stage table (self ms; * = on the critical path at nproc)\n")
	fmt.Fprintf(w, "%-18s %10s %10s\n", "stage", "p1", "pN")
	for _, r := range stages {
		mark := ""
		if r.critical {
			mark = " *"
		}
		fmt.Fprintf(w, "%-18s %10.3f %10.3f%s\n", r.name, r.p1, r.pN, mark)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "layer %-36s %14.4f %-5s moves: %s\n", d.name, layers[d.name], d.unit, d.moves)
	}
}
