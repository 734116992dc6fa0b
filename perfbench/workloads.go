package main

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"turnup"
	"turnup/internal/ingest"
)

// scale is the corpus size every workload uses: hfserved's default.
const scale = 0.05

// uniqueSeeds draws n distinct corpus seeds from rng.
func uniqueSeeds(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := uint64(rng.Int63n(1<<31)) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// generated computes, in-process, the results a server run of the same
// (seed, scale, k, models) produces: the oracle responses are checked
// against.
func generated(seed uint64, k int, models bool) (*turnup.Results, error) {
	d, err := turnup.Generate(turnup.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	return turnup.Run(d, turnup.RunOptions{Seed: seed, LatentClassK: k, SkipModels: !models})
}

func splitSections(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// setupN boots and warms a fleet at least setupRepeats times and for at
// least setupSpan, timing each, and returns the last one; setup_s is the
// median.
func (b *bench) setupN(ctx context.Context, o *outcome, boot func(f *fleet) error) (*fleet, error) {
	var f *fleet
	for began := time.Now(); len(o.setups) < setupRepeats || time.Since(began) < setupSpan; {
		if f != nil {
			f.stop()
		}
		f = &fleet{}
		t0 := time.Now()
		if err := boot(f); err != nil {
			f.stop()
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		if ctx.Err() != nil {
			f.stop()
			return nil, ctx.Err()
		}
	}
	return f, nil
}

// boot starts one binary of the fleet and waits until it is ready.
func (b *bench) boot(f *fleet, name string, args ...string) (*proc, error) {
	p, err := startProc(b.bin+"/"+name, name, args...)
	if err != nil {
		return nil, err
	}
	f.procs = append(f.procs, p)
	return p, p.waitReady(b.admin)
}

// measure brackets run with server-side readings: /metrics before and
// after (each forcing a GC first), and the processes' CPU time sampled
// throughout.
func (b *bench) measure(ctx context.Context, f *fleet, o *outcome, run func(start time.Time) []*sample) error {
	before, err := f.scrape(ctx, b.admin)
	if err != nil {
		return err
	}
	steal0, total0 := hostSteal()
	start := time.Now()
	stop := make(chan struct{})
	sampled := make(chan []cpuPoint)
	go func() {
		var tr []cpuPoint
		tick := time.NewTicker(cpuSampleEvery)
		defer tick.Stop()
		for last := false; ; {
			if c, err := f.cpu(); err == nil {
				tr = append(tr, cpuPoint{at: time.Since(start), cpu: c})
			}
			if last {
				sampled <- tr
				return
			}
			select {
			case <-stop:
				last = true
			case <-tick.C:
			}
		}
	}()
	o.samples = run(start)
	close(stop)
	if o.cpuTrace = <-sampled; len(o.cpuTrace) < 2 {
		return errors.New("could not read the servers' CPU time from /proc")
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		o.detail["host_steal_frac"] = (steal1 - steal0) / (total1 - total0)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	after, err := f.scrape(ctx, b.admin)
	if err != nil {
		return err
	}
	o.before, o.after, o.procs = before, after, f.info(after)
	return nil
}

// get sends a GET outside measurement and requires a 200.
func (b *bench) get(ctx context.Context, base, path string) (*response, error) {
	r, err := do(ctx, b.admin, base, &op{method: "GET", path: path})
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, r.status, r.body)
	}
	return r, nil
}

// fetcher GETs paths from base outside measurement.
func (b *bench) fetcher(ctx context.Context, base string) func(string) (*response, error) {
	return func(path string) (*response, error) { return b.get(ctx, base, path) }
}

// ---- response checks ----

// decoded returns the body with any gzip content coding removed.
func decoded(r *response) ([]byte, error) {
	if r.header.Get("Content-Encoding") != "gzip" {
		return r.body, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(r.body))
	if err != nil {
		return nil, fmt.Errorf("bad gzip body: %w", err)
	}
	return io.ReadAll(zr)
}

// reportOf extracts the report text: the body for text, the envelope's
// report field for JSON.
func reportOf(r *response, isJSON bool) ([]byte, error) {
	b, err := decoded(r)
	if err != nil || !isJSON {
		return b, err
	}
	var env struct {
		Report *string `json:"report"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("bad JSON envelope: %w", err)
	}
	if env.Report == nil {
		return nil, errors.New("JSON envelope has no report field")
	}
	return []byte(*env.Report), nil
}

// reportCheck verifies responses for one report key against its expected
// text. A text body that arrives byte-identical to one already verified
// is accepted without decoding it again.
type reportCheck struct {
	want   []byte
	isJSON bool
	etag   string // the ETag the key must always carry ("" before warm-up)
	seen   [][]byte
}

// check verifies one response; inm is the If-None-Match the request sent.
func (c *reportCheck) check(r *response, inm string) error {
	if c.etag != "" && r.header.Get("ETag") != c.etag {
		return fmt.Errorf("ETag %q, want the stable %q", r.header.Get("ETag"), c.etag)
	}
	if inm != "" && weakMatch(inm, c.etag) {
		if r.status != http.StatusNotModified || len(r.body) != 0 {
			return fmt.Errorf("status %d with %d bytes for a matching validator, want an empty 304", r.status, len(r.body))
		}
		return nil
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	if !c.isJSON {
		for _, s := range c.seen {
			if bytes.Equal(s, r.body) {
				return nil
			}
		}
	}
	got, err := reportOf(r, c.isJSON)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, c.want) {
		return fmt.Errorf("report differs from the in-process render (%d bytes, want %d)", len(got), len(c.want))
	}
	if !c.isJSON && len(c.seen) < 4 {
		c.seen = append(c.seen, append([]byte(nil), r.body...))
	}
	return nil
}

// weakMatch compares validators the way If-None-Match does.
func weakMatch(a, b string) bool {
	return b != "" && strings.TrimPrefix(a, "W/") == strings.TrimPrefix(b, "W/")
}

// ---- generated-report keyspaces ----

// genKey is one generated-report cache key: seed, section list, format.
type genKey struct {
	seed     uint64
	sections string
	json     bool
}

func (k genKey) path() string {
	p := "/v1/report"
	if k.sections != "" {
		p += "/" + k.sections
	}
	p += "?seed=" + strconv.FormatUint(k.seed, 10) + "&models=false"
	if k.json {
		p += "&format=json"
	}
	return p
}

// keyspace is a set of generated-report keys with their expected texts.
type keyspace struct {
	seeds  []uint64
	keys   []genKey
	checks map[genKey]*reportCheck
}

// newKeyspace computes every key's expected text in-process (descriptive
// run, models=false, the server's default k).
func newKeyspace(seeds []uint64, sections []string) (*keyspace, error) {
	ks := &keyspace{seeds: seeds, checks: map[genKey]*reportCheck{}}
	for _, seed := range seeds {
		res, err := generated(seed, 12, false)
		if err != nil {
			return nil, err
		}
		for _, sec := range sections {
			text, err := turnup.RenderString(res, splitSections(sec)...)
			if err != nil {
				return nil, err
			}
			for _, js := range []bool{false, true} {
				k := genKey{seed, sec, js}
				ks.keys = append(ks.keys, k)
				ks.checks[k] = &reportCheck{want: []byte(text), isJSON: js}
			}
		}
	}
	return ks, nil
}

// warm fetches every key once, checks it, and records its ETag, which
// every later response for the key must repeat.
func warm(fetch func(path string) (*response, error), ks *keyspace) error {
	for _, k := range ks.keys {
		r, err := fetch(k.path())
		if err != nil {
			return err
		}
		c := ks.checks[k]
		etag := r.header.Get("ETag")
		if c.etag != "" && etag != c.etag {
			return fmt.Errorf("warm %s: ETag %q changed from %q", k.path(), etag, c.etag)
		}
		c.etag = ""
		if err := c.check(r, ""); err != nil {
			return fmt.Errorf("warm %s: %w", k.path(), err)
		}
		c.etag = etag
	}
	return nil
}

// readClass is one kind of hit request: format, content coding, and
// conditional header.
type readClass struct {
	name string
	json bool
	gzip bool
	inm  string // "", "match" or "other"
}

// readOp builds one hit request for key k in class c.
func (ks *keyspace) readOp(k genKey, c readClass) *op {
	k.json = c.json
	chk := ks.checks[k]
	h := http.Header{}
	if c.gzip {
		h.Set("Accept-Encoding", "gzip")
	}
	inm := ""
	switch c.inm {
	case "match":
		inm = chk.etag
	case "other":
		inm = `"0000000000000000"`
	}
	if inm != "" {
		h.Set("If-None-Match", inm)
	}
	return &op{kind: "report", method: "GET", path: k.path(), header: h,
		check: func(r *response) error { return chk.check(r, inm) }}
}

// hotOp draws one hot-read request. The key shares are hfload's default
// mix (internal/load DefaultMix): its hot kind, weight 6, repeats one
// report key, here each seed's full report; its section kind, weight 2,
// cycles load.Config's four default sections. No recorded traffic gives
// shares of format, content coding or validators, so every class is drawn
// equally often.
func (ks *keyspace) hotOp(rng *rand.Rand) *op {
	k := genKey{seed: ks.seeds[rng.Intn(len(ks.seeds))]}
	if rng.Intn(hotFullWeight+hotSectionWeight) >= hotFullWeight {
		k.sections = hotSections[rng.Intn(len(hotSections))]
	}
	return ks.readOp(k, hotClasses[rng.Intn(len(hotClasses))])
}

// ---- cold-pipeline ----

// coldK is the latent class count of cold reports: at the paper's k=12
// LTM alone takes ~5 s per report, too few samples per run.
const coldK = 6

// coldCorpora are the cold reports' corpus seeds, one per client, and
// coldWarm a corpus that warms the server. Per-report cost varies about
// twofold between corpora (LTM and ZIP iterations), with rare corpora far
// slower, so the corpora are fixed rather than drawn per run: two of a
// seeded suite whose reports take about as long as each other, so neither
// client idles long at the end of a round.
var coldCorpora = []uint64{519888438, 698082383}

const coldWarm = 773976169

// coldStretches is how many stretches of whole rounds cold-pipeline's
// throughput and CPU time are taken from: enough that one usually misses
// the host's bursts, few enough that each holds three or so rounds.
const coldStretches = 8

// coldServerFlags keep no result and no rendered body, so every report is
// computed afresh and still sized for admission (the result cache sizes a
// result, then refuses it as larger than its budget).
var coldServerFlags = []string{"-max-cache-bytes", "1", "-render-cache-bytes", "-1"}

type coldReplay struct{ seeds []uint64 }

func coldOp(seed uint64) *op {
	return &op{kind: "report", method: "GET", keep: true,
		path: fmt.Sprintf("/v1/report?seed=%d&k=%d", seed, coldK),
		check: func(r *response) error {
			if r.status != http.StatusOK {
				return fmt.Errorf("status %d: %.200s", r.status, r.body)
			}
			if x := r.header.Get("X-Cache"); x != "miss" {
				return fmt.Errorf("X-Cache %q on a server that keeps no result, want miss", x)
			}
			if !strings.HasPrefix(r.header.Get("Content-Type"), "text/plain") || len(r.body) == 0 {
				return errors.New("empty or non-text report body")
			}
			return nil
		}}
}

// coldPipeline: two clients in step, each requesting the full report
// (models on, k=6) of its own corpus, on a server that keeps no result,
// warmed by one report of another corpus. The workload seed sets which
// client takes which corpus. Each round overlaps the same two reports, so
// rounds differ only by what else the host runs.
func (b *bench) coldPipeline(ctx context.Context) (*outcome, error) {
	corpora := append([]uint64(nil), coldCorpora...)
	rand.New(rand.NewSource(b.seed)).Shuffle(len(corpora), func(i, j int) { corpora[i], corpora[j] = corpora[j], corpora[i] })
	o := newOutcome(0.75)
	var url string
	f, err := b.setupN(ctx, o, func(f *fleet) error {
		p, err := b.boot(f, "hfserved", coldServerFlags...)
		if err != nil {
			return err
		}
		url = p.url
		r, err := do(ctx, b.admin, url, coldOp(coldWarm))
		if err == nil {
			err = coldOp(coldWarm).check(r)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	// More rounds than the fastest report could complete in the window.
	ops := make([][]*op, int(5*b.window.Seconds())+2)
	for r := range ops {
		for _, seed := range corpora {
			ops[r] = append(ops[r], coldOp(seed))
		}
	}
	var rs [][]*sample
	err = b.measure(ctx, f, o, func(start time.Time) []*sample {
		rs = rounds(ctx, b.client, url, start, b.window, ops)
		return slices.Concat(rs...)
	})
	if err != nil {
		return nil, err
	}
	f.stop()
	// Every report of a corpus must equal the first, and the first must
	// equal an in-process run of the same corpus.
	quartile := make([]float64, len(corpora))
	for c, seed := range corpora {
		var ok []*sample
		var first *sample
		for _, r := range rs {
			s := r[c]
			if s.err != "" {
				continue
			}
			if first == nil {
				first = s
				res, err := generated(seed, coldK, true)
				if err != nil {
					return nil, err
				}
				if string(s.resp.body) != turnup.RenderAll(res) {
					s.err = "report differs from the in-process run of the same corpus"
				}
			} else if !bytes.Equal(first.resp.body, s.resp.body) {
				s.err = "report differs from an earlier report of the same corpus"
			}
			ok = append(ok, s)
		}
		quartile[c] = quartileLatency(ok)
	}
	for _, s := range o.samples {
		s.resp = nil
	}
	// The corpora's reports differ in cost, so each corpus's quartile is
	// taken on its own; the workload's is the median over the corpora.
	perCorpus := map[string]float64{}
	for c, seed := range corpora {
		perCorpus[strconv.FormatUint(seed, 10)] = quartile[c]
	}
	o.reportMs = median(quartile)
	o.reportHow = fmt.Sprintf("median over %d corpora of each one's p25 over %d rounds", len(corpora), len(rs))
	sts := stretchesOf(rs, coldStretches)
	o.throughput = quartileRate(sts)
	o.cpuPerOp = o.quartileCPU(sts)
	o.detail["report_p25_ms_by_corpus"] = perCorpus
	o.detail["rounds"] = len(rs)
	o.detail["clients"] = len(corpora)
	o.detail["k"] = coldK
	o.detail["scale"] = scale
	var done []uint64
	for range rs {
		done = append(done, corpora...)
	}
	o.replay = coldReplay{seeds: done}
	return o, nil
}

// ---- hot-read ----

// hotKeySeeds are the corpora of the hot keyspace: hfload's default seed
// and the next two. They are fixed, so a run's hit cost does not move with
// report sizes that differ between corpora; the workload seed draws the
// request sequence.
var hotKeySeeds = []uint64{1, 2, 3}

const (
	hotLimitMs = 20.0 // report p99 limit for max_rps
	// hotFullWeight and hotSectionWeight are DefaultMix's hot and section
	// weights.
	hotFullWeight, hotSectionWeight = 6, 2
)

// hotSections are load.Config's default section list.
var hotSections = []string{"growth", "corpus", "concentration", "payments"}

// newHotKeyspace holds each seed's full report and hotSections.
func newHotKeyspace(seeds []uint64) (*keyspace, error) {
	return newKeyspace(seeds, append([]string{""}, hotSections...))
}

// hotClasses are the hit request classes, drawn equally often.
var hotClasses = []readClass{
	{"text", false, false, ""},
	{"text-gzip", false, true, ""},
	{"json", true, false, ""},
	{"json-gzip", true, true, ""},
	{"revalidate", false, false, "match"},
	{"revalidate-stale", false, false, "other"},
}

// The hot-read schedule. For hotAlternateFrac of the run, hotSegments
// segments each send at make bench-load's 50 rps for hotOpenShare of the
// segment, then back to back on every connection for the rest: the 50 rps
// hits are the workload's report latency (700 in a 25-second run, which
// leaves ten beyond the p98.5 tail), and the bursts' completion
// rate is the server's capacity, the workload's throughput. The run ends
// with a step at each of hotProbes, each for hotProbeFrac of the run, which
// with the 50 rps step give max_rps.
const (
	hotRate          = 50.0
	hotSegments      = 16
	hotAlternateFrac = 0.84
	hotOpenShare     = 2.0 / 3
	hotProbeFrac     = 0.08
)

var hotProbes = []float64{500, 1000}

// hotMaxPerS sizes the requests built for a burst, about twice the
// ~4700/s two vCPUs complete.
const hotMaxPerS = 10000

type hotReplay struct {
	ks  *keyspace
	ops []*op
}

// hotRead: open-loop segments at 50 rps alternating with back-to-back
// bursts, then steps at higher fixed rates, over a warmed keyspace that
// fits both cache tiers at their default budgets.
func (b *bench) hotRead(ctx context.Context) (*outcome, error) {
	rng := rand.New(rand.NewSource(b.seed))
	ks, err := newHotKeyspace(hotKeySeeds)
	if err != nil {
		return nil, err
	}
	o := newOutcome(0.985)
	var url string
	f, err := b.setupN(ctx, o, func(f *fleet) error {
		p, err := b.boot(f, "hfserved")
		if err != nil {
			return err
		}
		url = p.url
		return warm(b.fetcher(ctx, url), ks)
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()

	var ops []*op // every open-loop op, in schedule order
	openPart := func(length time.Duration, rate float64) segment {
		var sg segment
		gap := time.Duration(float64(time.Second) / rate)
		for t := time.Duration(0); t < length; t += gap {
			sg.ops = append(sg.ops, ks.hotOp(rng))
			sg.due = append(sg.due, t)
		}
		ops = append(ops, sg.ops...)
		return sg
	}
	var segs []segment
	segLen := time.Duration(hotAlternateFrac * float64(b.window) / hotSegments)
	openLen := time.Duration(hotOpenShare * float64(segLen))
	for k := 0; k < hotSegments; k++ {
		sg := openPart(openLen, hotRate)
		sg.burstFor = segLen - openLen
		sg.burst = make([][]*op, b.conns)
		for c := range sg.burst {
			for i := 0; i < int(hotMaxPerS*sg.burstFor.Seconds())/b.conns; i++ {
				sg.burst[c] = append(sg.burst[c], ks.hotOp(rng))
			}
		}
		segs = append(segs, sg)
	}
	for _, rate := range hotProbes {
		segs = append(segs, openPart(time.Duration(hotProbeFrac*float64(b.window)), rate))
	}
	var open, bursts [][]*sample
	var runErr error
	err = b.measure(ctx, f, o, func(start time.Time) []*sample {
		open, bursts, runErr = alternate(ctx, b.client, url, start, segs, b.conns, b.window)
		return append(slices.Concat(open...), slices.Concat(bursts...)...)
	})
	if err = cmp.Or(err, runErr); err != nil {
		return nil, err
	}
	rates := append([]float64{hotRate}, hotProbes...)
	steps := append([][]*sample{slices.Concat(open[:hotSegments]...)}, open[hotSegments:]...)
	o.reports = steps[0]
	lats := stretchesOf(open[:hotSegments], hotSegments)
	o.reportMs = quartileLatency(steps[0])
	o.reportHow = fmt.Sprintf("p25 of %d samples at %g rps", len(steps[0]), hotRate)
	caps := stretchesOf(bursts[:hotSegments], hotSegments)
	o.throughput = quartileRate(caps)
	o.cpuPerOp = o.quartileCPU(caps)
	o.detail["segments"] = perStretch(lats, caps)
	var table []map[string]float64
	maxRPS := 0.0
	for i, ss := range steps {
		lat := latencies(ss)
		p99 := quantile(lat, 0.99)
		growing := backlogGrows(ss)
		ok := p99 <= hotLimitMs && !growing && len(lat) == len(ss)
		if ok && rates[i] > maxRPS {
			maxRPS = rates[i]
		}
		g := 0.0
		if growing {
			g = 1
		}
		table = append(table, map[string]float64{"rate": rates[i], "n": float64(len(ss)),
			"p50_ms": quantile(lat, 0.5), "p99_ms": p99, "backlog_grows": g})
	}
	// The keyspace fits both tiers, so no measured request may miss the
	// render cache.
	o.checks++
	if miss := sum(o.after, "serve_render_cache_misses_total") - sum(o.before, "serve_render_cache_misses_total"); miss > 0 {
		o.failures = append(o.failures, fmt.Sprintf("%g render-cache misses on a keyspace that fits the cache", miss))
	}
	o.only["max_rps"] = maxRPS
	o.detail["steps"] = table
	o.detail["back_to_back"] = len(slices.Concat(bursts...))
	o.detail["p99_limit_ms"] = hotLimitMs
	o.detail["keys"] = len(ks.keys)
	o.replay = hotReplay{ks: ks, ops: ops}
	return o, nil
}

// backlogGrows reports whether sends fell further behind schedule over a
// step: the median send lag of its last fifth exceeds the first fifth's
// by more than half the latency limit.
func backlogGrows(ss []*sample) bool {
	n := len(ss) / 5
	if n == 0 {
		return false
	}
	lag := func(part []*sample) float64 {
		var ds []time.Duration
		for _, s := range part {
			ds = append(ds, s.sent-s.due)
		}
		return quantile(msOf(ds), 0.5)
	}
	return lag(ss[len(ss)-n:])-lag(ss[:n]) > hotLimitMs/2
}

// ---- ingest-mixed ----

// Ingest's rates are hfload's default traffic cut down to its dataset
// kinds: make bench-load's 50 rps split by DefaultMix's weights, 13 in
// all, sends event appends at 1/13 of it and dataset reads at 2/13.
const (
	loadRPS          = 50.0
	ingestWritesPerS = loadRPS * 1 / 13
	ingestReadsPerS  = loadRPS * 2 / 13
	ingestWindow     = "30d"
	// ingestSegments segments each run that schedule for ingestOpenShare
	// of the segment, then append a burst of batches back to back on one
	// connection, so both phases are spread over the whole run.
	ingestSegments  = 16
	ingestOpenShare = 2.0 / 3
	// ingestAppendsPerS sizes each burst: about what two vCPUs complete,
	// so a burst fills the rest of its segment. The count is fixed, not the
	// time, so the corpus a run ends with does not move with speed.
	ingestAppendsPerS = 1000
	// ingestCorpusSeed is hfload's default seed. The corpus is fixed, as
	// report and append costs move with its size; the workload seed sets
	// where the appends start after the corpus's last contract, which moves
	// the 30-day window, and the phase of the reads.
	ingestCorpusSeed = 1
)

type ingestReplay struct {
	corpus  []byte   // the uploaded TUDS bytes
	batches [][]byte // NDJSON event batches, in append order
}

// eventBatch is one small append as hfload builds them: two fresh users
// and one completed public COVID-era contract between them, created at
// the given time so batches arrive in creation order.
func eventBatch(n int, at time.Time) []byte {
	maker, taker := 5_000_000+2*n-1, 5_000_000+2*n
	created := at.Format(time.RFC3339)
	done := at.Add(30 * time.Minute).Format(time.RFC3339)
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"kind":"user","id":%d,"joined":%q,"first_post":%q,"posts":1,"marketplace_posts":1,"reputation":1}`+"\n", maker, created, created)
	fmt.Fprintf(&b, `{"kind":"user","id":%d,"joined":%q,"first_post":%q,"posts":1,"marketplace_posts":1,"reputation":1}`+"\n", taker, created, created)
	fmt.Fprintf(&b, `{"kind":"contract","id":%d,"type":"EXCHANGE","maker":%d,"taker":%d,"thread":1,"created":%q,"decided":%q,"completed":%q,"status":"Complete","public":true,"maker_obligation":"btc","taker_obligation":"paypal transfer","maker_rating":1,"taker_rating":1}`+"\n",
		9_000_000+n, maker, taker, created, created, done)
	return b.Bytes()
}

// appendOp posts one batch and requires the dataset's next generation.
func appendOp(id string, batch []byte, gen uint64) *op {
	return &op{kind: "write", method: "POST", path: "/v1/datasets/" + id + "/events", body: batch,
		header: http.Header{"Content-Type": {"application/x-ndjson"}},
		check: func(r *response) error {
			if r.status != http.StatusOK {
				return fmt.Errorf("status %d: %.200s", r.status, r.body)
			}
			var ev struct {
				Dataset struct {
					Generation uint64 `json:"generation"`
				} `json:"dataset"`
			}
			if err := json.Unmarshal(r.body, &ev); err != nil {
				return err
			}
			if ev.Dataset.Generation != gen {
				return fmt.Errorf("append produced generation %d, want %d", ev.Dataset.Generation, gen)
			}
			return nil
		}}
}

// ingestMixed: upload a corpus; then, in each of ingestSegments segments,
// restore the dataset to the uploaded corpus, append event batches on an
// open-loop schedule, each followed by a full-history and a windowed
// report, on one connection while dataset-report reads arrive on the
// other, and then append a fixed burst of batches back to back on one
// connection. Report and append costs grow with the corpus, so every
// segment starts from the same corpus and appends the same batches: the
// segments differ only by what else the host runs. The post-append
// full-history reports are the workload's report latency, and the bursts
// its throughput.
func (b *bench) ingestMixed(ctx context.Context) (*outcome, error) {
	rng := rand.New(rand.NewSource(b.seed))
	o := newOutcome(0.85)
	var url, id string
	var corpus []byte
	var initial *response
	full := func() string { return "/v1/report?dataset=" + id + "&models=false" }
	windowed := func() string { return full() + "&window=" + ingestWindow }
	// upload stores the corpus as a new dataset, which must keep its id.
	upload := func() error {
		r, err := do(ctx, b.admin, url, &op{method: "POST", path: "/v1/datasets", body: corpus,
			header: http.Header{"Content-Type": {turnup.ContentTypeBinary}}})
		if err != nil {
			return err
		}
		if r.status != http.StatusCreated {
			return fmt.Errorf("upload: status %d: %.200s", r.status, r.body)
		}
		var up struct {
			Dataset struct {
				ID string `json:"id"`
			} `json:"dataset"`
		}
		if err := json.Unmarshal(r.body, &up); err != nil || up.Dataset.ID == "" || (id != "" && up.Dataset.ID != id) {
			return fmt.Errorf("upload: bad response %.200s", r.body)
		}
		id = up.Dataset.ID
		return nil
	}
	f, err := b.setupN(ctx, o, func(f *fleet) error {
		d, err := turnup.Generate(turnup.Config{Seed: ingestCorpusSeed, Scale: scale})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := turnup.WriteBinary(&buf, d); err != nil {
			return err
		}
		corpus, id = buf.Bytes(), ""
		p, err := b.boot(f, "hfserved")
		if err != nil {
			return err
		}
		url = p.url
		if err := upload(); err != nil {
			return err
		}
		if initial, err = b.get(ctx, url, full()); err != nil {
			return err
		}
		_, err = b.get(ctx, url, windowed())
		return err
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()

	d0, err := turnup.ReadBinary(bytes.NewReader(corpus))
	if err != nil {
		return nil, err
	}
	segLen := b.window / ingestSegments
	openLen := time.Duration(ingestOpenShare * float64(segLen))
	nWrites := int(ingestWritesPerS * openLen.Seconds())
	nReads := int(ingestReadsPerS * openLen.Seconds())
	nBurst := int(ingestAppendsPerS * (segLen - openLen).Seconds())
	base := ingest.MaxCreated(d0).Add(time.Duration(rng.Int63n(int64(time.Hour))))
	readPhase := time.Duration(rng.Float64() / ingestReadsPerS * float64(time.Second))
	step := time.Minute
	if room := turnupStudyEnd.Sub(base) / time.Duration(nWrites+nBurst+2); room < step {
		step = room
	}
	var batches [][]byte
	for i := 0; i < nWrites+nBurst; i++ {
		batches = append(batches, eventBatch(i+1, base.Add(time.Duration(i+1)*step)))
	}
	// reset drops the dataset and uploads the corpus again: generation 1.
	reset := func() error {
		r, err := do(ctx, b.admin, url, &op{method: "DELETE", path: "/v1/datasets/" + id})
		if err != nil {
			return err
		}
		if r.status != http.StatusNoContent {
			return fmt.Errorf("delete: status %d: %.200s", r.status, r.body)
		}
		return upload()
	}
	// postAppend is the full-history report, then the windowed one, that
	// follow an append producing generation gen.
	follow := map[*op]bool{}
	postAppend := func(gen uint64) *op {
		fullOp := &op{kind: "report", method: "GET", path: full(), keep: true, check: genCheck(gen),
			next: &op{kind: "report", method: "GET", path: windowed(), check: genCheck(gen)}}
		follow[fullOp] = true
		return fullOp
	}
	segs := make([]segment, ingestSegments)
	appends := make([][]*op, ingestSegments) // each segment's, in generation order
	reads := map[*op]bool{}
	for k := range segs {
		sg := &segs[k]
		sg.reset = reset
		nextAppend := func() *op {
			n := len(appends[k])
			w := appendOp(id, batches[n], uint64(n+2))
			appends[k] = append(appends[k], w)
			return w
		}
		for i := 0; i < nWrites; i++ {
			w := nextAppend()
			w.next = postAppend(uint64(len(appends[k]) + 1))
			sg.ops = append(sg.ops, w)
			sg.due = append(sg.due, time.Duration(float64(i)/ingestWritesPerS*float64(time.Second)))
			sg.lane = append(sg.lane, 0)
		}
		for i := 0; i < nReads; i++ {
			r := &op{kind: "report", method: "GET", path: full(), keep: true, check: genCheck(0)}
			reads[r] = true
			sg.ops = append(sg.ops, r)
			sg.due = append(sg.due, readPhase+time.Duration(float64(i)/ingestReadsPerS*float64(time.Second)))
			sg.lane = append(sg.lane, 1)
		}
		// The burst ends with its last generation's reports, which end-of-run
		// checks compare with a from-scratch run.
		burst := make([]*op, 0, nBurst+2)
		for i := 0; i < nBurst; i++ {
			burst = append(burst, nextAppend())
		}
		last := postAppend(uint64(len(appends[k]) + 1))
		sg.burst = [][]*op{append(burst, last, last.next)}
	}
	var open, bursts [][]*sample
	var runErr error
	err = b.measure(ctx, f, o, func(start time.Time) []*sample {
		// A server far slower than expected ends the bursts at three run
		// lengths rather than the program's time limit.
		open, bursts, runErr = alternate(ctx, b.client, url, start, segs, b.conns, 3*b.window)
		return append(slices.Concat(open...), slices.Concat(bursts...)...)
	})
	if err = cmp.Or(err, runErr); err != nil {
		return nil, err
	}

	// Per segment: every full-history read of a generation must equal that
	// generation's post-append report (generation 1: the one read at setup).
	var writes, burstWrites, readLat []*sample
	segReports := make([][]*sample, len(open))
	segWrites := make([][]*sample, len(open))
	for k := range open {
		ss := append(open[k], bursts[k]...)
		byGen := map[string][]byte{"1": initial.body}
		for _, s := range ss {
			if follow[s.op] {
				segReports[k] = append(segReports[k], s)
				if s.err == "" {
					byGen[s.resp.header.Get("X-Dataset-Generation")] = s.resp.body
				}
			}
		}
		for _, s := range ss {
			switch {
			case reads[s.op]:
				readLat = append(readLat, s)
				if want, ok := byGen[s.resp.header.Get("X-Dataset-Generation")]; ok && s.err == "" && !bytes.Equal(want, s.resp.body) {
					s.err = "full-history report differs from the same generation's post-append report"
				}
			case s.op.kind == "write" && s.op.next != nil:
				writes = append(writes, s)
			case s.op.kind == "write":
				segWrites[k] = append(segWrites[k], s)
				burstWrites = append(burstWrites, s)
			}
		}
	}
	// The last segment's final generation against a from-scratch run over
	// the corpus with its batches applied.
	sent := 0
	if n := len(open); n > 0 {
		done := map[*op]bool{}
		for _, s := range append(open[n-1], bursts[n-1]...) {
			done[s.op] = true
		}
		for sent < len(appends[n-1]) && done[appends[n-1][sent]] {
			sent++
		}
	}
	batches = batches[:sent]
	bt, err := ingest.DecodeBatch("application/x-ndjson", bytes.NewReader(bytes.Join(batches, nil)))
	if err != nil {
		return nil, err
	}
	dN := ingest.Apply(d0, bt)
	gen := strconv.Itoa(sent + 1)
	for _, window := range []string{"", ingestWindow} {
		path := full()
		if window != "" {
			path = windowed()
		}
		o.checks++
		r, err := do(ctx, b.admin, url, &op{method: "GET", path: path})
		if err != nil {
			return nil, err
		}
		want, err := renderDataset(dN, window)
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK || r.header.Get("X-Dataset-Generation") != gen || want != string(r.body) {
			o.failures = append(o.failures, fmt.Sprintf("final report %s (status %d, generation %s) differs from a from-scratch run over the appended corpus (generation %s)",
				path, r.status, r.header.Get("X-Dataset-Generation"), gen))
		}
	}
	o.reports = slices.Concat(segReports...)
	lats := stretchesOf(segReports, ingestSegments)
	o.reportMs = quartileLatency(o.reports)
	o.reportHow = fmt.Sprintf("p25 of %d post-append reports", len(o.reports))
	caps := stretchesOf(segWrites, ingestSegments)
	o.throughput = quartileRate(caps)
	o.cpuPerOp = o.quartileCPU(caps)
	o.detail["segments"] = perStretch(lats, caps)
	for _, s := range o.samples {
		s.resp = nil
	}
	wl := latencies(writes)
	o.only["write_p50_ms"] = quantile(wl, 0.5)
	o.only["write_tail_ms"] = quantile(wl, 0.8)
	rl := latencies(readLat)
	o.detail["read_p50_ms"] = quantile(rl, 0.5)
	o.detail["read_p99_ms"] = quantile(rl, 0.99)
	o.detail["write_tail_percentile"] = 80
	o.detail["writes_scheduled"] = len(writes)
	o.detail["writes_back_to_back"] = len(burstWrites)
	o.detail["batch_time_step_s"] = step.Seconds()
	o.detail["corpus_contracts"] = len(d0.Contracts)
	o.detail["corpus_bytes"] = len(corpus)
	o.replay = ingestReplay{corpus: corpus, batches: batches}
	return o, nil
}

// turnupStudyEnd is the end of the study window: appended contracts must
// be created before it.
var turnupStudyEnd = time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)

// genCheck requires a 200 report at the given dataset generation (0 =
// any generation).
func genCheck(gen uint64) func(*response) error {
	return func(r *response) error {
		if r.status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", r.status, r.body)
		}
		g := r.header.Get("X-Dataset-Generation")
		if gen != 0 && g != strconv.FormatUint(gen, 10) {
			return fmt.Errorf("report at generation %s, want %d", g, gen)
		}
		if len(r.body) == 0 {
			return errors.New("empty report body")
		}
		return nil
	}
}

// renderDataset runs the descriptive suite over d (or its window) the way
// a dataset-backed report does, from scratch.
func renderDataset(d *turnup.Dataset, window string) (string, error) {
	if window != "" {
		wd, err := ingest.Window(d, window, "")
		if err != nil {
			return "", err
		}
		d = wd
	}
	res, err := turnup.Run(d, turnup.RunOptions{Seed: 1, LatentClassK: 12, SkipModels: true})
	if err != nil {
		return "", err
	}
	return turnup.RenderAll(res), nil
}
