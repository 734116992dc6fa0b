// Tests for the rendered-section cache tier and the conditional-request
// machinery around it: byte-identity with the uncached path, strong/weak
// ETags, If-None-Match → 304 with an empty body, gzip negotiation on the
// disabled tier (streaming wrapper) and on misses and hits (precompressed
// variant), Vary headers, and two-tier invalidation coherence.
package serve_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"turnup"
	"turnup/internal/obs"
	"turnup/internal/serve"
)

// renderFixture starts a server with a stub runner and the render tier at
// its default budget, returning the server, registry, and run counter.
func renderFixture(t *testing.T) (*serve.Server, *httptest.Server, *obs.Registry, *atomic.Int64) {
	t.Helper()
	res := tinyResults(t)
	var runs atomic.Int64
	reg := obs.NewRegistry()
	srv := serve.New(serve.Options{
		Metrics: reg,
		Runner: func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
			runs.Add(1)
			return res, nil
		},
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, reg, &runs
}

// getHdr issues a GET with extra headers and returns the full response
// with its body consumed. Setting Accept-Encoding explicitly disables the
// Go client's transparent gzip, so the raw wire body comes back.
func getHdr(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestRenderCacheHitIsByteIdentical(t *testing.T) {
	res := tinyResults(t)
	runner := func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
		return res, nil
	}
	// Reference server with the render tier disabled: every response takes
	// the full Render path.
	ref := httptest.NewServer(serve.New(serve.Options{Runner: runner, RenderCacheBytes: -1}))
	defer ref.Close()
	cached := httptest.NewServer(serve.New(serve.Options{Runner: runner}))
	defer cached.Close()

	for _, path := range []string{
		"/v1/report?seed=7&scale=0.02&models=false",
		"/v1/report/growth,corpus?seed=7&scale=0.02&models=false",
		"/v1/report/payments?seed=7&scale=0.02&models=false&format=json",
	} {
		want := mustGet(t, ref.URL+path)
		first := mustGet(t, cached.URL+path)
		second := mustGet(t, cached.URL+path) // render-tier hit
		// JSON envelopes differ per request (request_id, cache status), so
		// compare the cached report fragment; text must match exactly.
		if strings.Contains(path, "format=json") {
			tail := func(s string) string {
				_, rest, _ := strings.Cut(s, `"report"`)
				return rest
			}
			if tail(first) != tail(want) || tail(second) != tail(want) {
				t.Errorf("%s: cached JSON report diverges from uncached render", path)
			}
			continue
		}
		if first != want {
			t.Errorf("%s: miss-path body differs from render-tier-disabled server", path)
		}
		if second != want {
			t.Errorf("%s: render-cache hit body differs from uncached render", path)
		}
	}
}

func TestReportETagAndConditionalGet(t *testing.T) {
	_, ts, reg, _ := renderFixture(t)

	textURL := ts.URL + "/v1/report/growth?seed=7&scale=0.02&models=false"
	resp, body := getHdr(t, textURL, nil)
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("cold GET: code=%d etag=%q", resp.StatusCode, etag)
	}
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("text ETag %q is not a strong validator", etag)
	}
	if len(body) == 0 {
		t.Fatal("cold GET returned empty body")
	}

	// Same params in JSON format: a different rendered entity, so a
	// different — and weak — validator (the envelope varies per request).
	jresp, _ := getHdr(t, textURL+"&format=json", nil)
	jtag := jresp.Header.Get("ETag")
	if !strings.HasPrefix(jtag, `W/"`) {
		t.Fatalf("JSON ETag %q is not weak", jtag)
	}
	if jtag == etag {
		t.Fatal("JSON and text renderings share an ETag")
	}

	// Conditional GET: matching If-None-Match yields 304 with no body and
	// the same cache-state headers a full response carries.
	cond, condBody := getHdr(t, textURL, map[string]string{"If-None-Match": etag})
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match %s: code=%d, want 304", etag, cond.StatusCode)
	}
	if len(condBody) != 0 {
		t.Fatalf("304 carried %d body bytes", len(condBody))
	}
	if got := cond.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag=%q, want %q", got, etag)
	}
	if got := cond.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("304 X-Cache=%q, want hit", got)
	}
	if got := reg.Counter("serve_http_304_total").Value(); got != 1 {
		t.Fatalf("serve_http_304_total=%d, want 1", got)
	}
	// A weak-compare match ("W/" prefix on the client side) also revalidates.
	weak, _ := getHdr(t, textURL, map[string]string{"If-None-Match": "W/" + etag})
	if weak.StatusCode != http.StatusNotModified {
		t.Fatalf("weak If-None-Match: code=%d, want 304", weak.StatusCode)
	}
	// A stale validator gets the full body again.
	stale, staleBody := getHdr(t, textURL, map[string]string{"If-None-Match": `"0000000000000000"`})
	if stale.StatusCode != http.StatusOK || len(staleBody) == 0 {
		t.Fatalf("stale If-None-Match: code=%d body=%dB, want 200 with body", stale.StatusCode, len(staleBody))
	}
}

func TestReportGzipOnMissAndPrecompressedHit(t *testing.T) {
	_, ts, _, _ := renderFixture(t)
	url := ts.URL + "/v1/report?seed=7&scale=0.02&models=false"

	plainResp, plain := getHdr(t, url, nil)
	if enc := plainResp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity request got Content-Encoding %q", enc)
	}

	gunzip := func(t *testing.T, resp *http.Response, wire []byte) string {
		t.Helper()
		if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
			t.Fatalf("Content-Encoding=%q, want gzip", enc)
		}
		zr, err := gzip.NewReader(strings.NewReader(string(wire)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	// A disabled render tier builds no gzip variant, so its gzip client
	// gets the identity body, with its Content-Length, like any entry
	// without a variant.
	res := tinyResults(t)
	off := httptest.NewServer(serve.New(serve.Options{RenderCacheBytes: -1,
		Runner: func(context.Context, serve.Params, *serve.Snapshot) (*turnup.Results, error) { return res, nil }}))
	defer off.Close()
	offResp, offBody := getHdr(t, off.URL+"/v1/report?seed=7&scale=0.02&models=false", map[string]string{"Accept-Encoding": "gzip"})
	if enc := offResp.Header.Get("Content-Encoding"); enc != "" || string(offBody) != string(plain) {
		t.Fatalf("disabled tier: Content-Encoding %q; want the identity body", enc)
	}
	if offResp.ContentLength != int64(len(plain)) {
		t.Fatalf("disabled tier sent Content-Length %d, want %d", offResp.ContentLength, len(plain))
	}
	if vary := offResp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
		t.Fatalf("disabled tier Vary=%q", vary)
	}

	// On a fresh enabled tier the miss serves the entry it just built, and
	// the repeat request hits it: both write the precompressed variant.
	_, ts2, reg2, _ := renderFixture(t)
	url2 := ts2.URL + "/v1/report?seed=7&scale=0.02&models=false"
	missResp, missWire := getHdr(t, url2, map[string]string{"Accept-Encoding": "gzip"})
	if got := gunzip(t, missResp, missWire); got != string(plain) {
		t.Fatal("gzip miss-path body differs from identity body")
	}
	if missResp.Header.Get("X-Cache") != "miss" || missResp.ContentLength != int64(len(missWire)) {
		t.Fatalf("gzip miss: X-Cache=%q Content-Length=%d, want a miss with the variant's %d bytes",
			missResp.Header.Get("X-Cache"), missResp.ContentLength, len(missWire))
	}
	hitResp, hitWire := getHdr(t, url2, map[string]string{"Accept-Encoding": "gzip"})
	if got := gunzip(t, hitResp, hitWire); got != string(plain) {
		t.Fatal("precompressed hit body differs from identity body")
	}
	if got := hitResp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat gzip request X-Cache=%q, want hit", got)
	}
	if hits := reg2.Counter("serve_render_cache_hits_total").Value(); hits != 1 {
		t.Fatalf("serve_render_cache_hits_total=%d, want 1", hits)
	}
	// The identity variant stays available after a precompressed hit.
	idResp, idBody := getHdr(t, url2, nil)
	if idResp.Header.Get("Content-Encoding") != "" || string(idBody) != string(plain) {
		t.Fatal("identity request after gzip hit did not match the plain body")
	}
}

func TestVaryHeaderOnRegistryEndpoints(t *testing.T) {
	_, ts, _, _ := renderFixture(t)
	for _, path := range []string{"/v1/sections", "/v1/stages", "/v1/report/growth?seed=7&scale=0.02&models=false"} {
		resp, _ := getHdr(t, ts.URL+path, nil)
		if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
			t.Errorf("%s: Vary=%q, want Accept-Encoding", path, vary)
		}
		// Reports negotiate gzip; the small section and stage listings
		// go out identity to every client.
		zresp, wire := getHdr(t, ts.URL+path, map[string]string{"Accept-Encoding": "gzip"})
		if !strings.HasPrefix(path, "/v1/report") {
			if enc := zresp.Header.Get("Content-Encoding"); enc != "" {
				t.Errorf("%s with Accept-Encoding gzip: Content-Encoding=%q, want identity", path, enc)
			}
			if ident, body := getHdr(t, ts.URL+path, nil); string(body) != string(wire) || ident.Header.Get("Vary") != zresp.Header.Get("Vary") {
				t.Errorf("%s: gzip client got a different identity response", path)
			}
			continue
		}
		if enc := zresp.Header.Get("Content-Encoding"); enc != "gzip" {
			t.Errorf("%s with Accept-Encoding gzip: Content-Encoding=%q", path, enc)
			continue
		}
		zr, err := gzip.NewReader(strings.NewReader(string(wire)))
		if err != nil {
			t.Errorf("%s: bad gzip stream: %v", path, err)
			continue
		}
		if _, err := io.ReadAll(zr); err != nil {
			t.Errorf("%s: bad gzip payload: %v", path, err)
		}
	}
}

func TestInvalidateClearsBothTiers(t *testing.T) {
	srv, ts, reg, runs := renderFixture(t)
	url := ts.URL + "/v1/report/growth?seed=7&scale=0.02&models=false"

	if code, cache, _ := get(t, url); code != http.StatusOK || cache != "miss" {
		t.Fatalf("cold: code=%d cache=%q", code, cache)
	}
	if code, cache, _ := get(t, url); code != http.StatusOK || cache != "hit" {
		t.Fatalf("warm: code=%d cache=%q", code, cache)
	}
	if n := srv.Invalidate(func(serve.Params) bool { return true }); n != 2 {
		t.Fatalf("Invalidate dropped %d entries, want 2 (one per tier)", n)
	}
	if code, cache, _ := get(t, url); code != http.StatusOK || cache != "miss" {
		t.Fatalf("post-invalidate: code=%d cache=%q, want a fresh miss", code, cache)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("pipeline ran %d times, want 2 (re-run after invalidation)", n)
	}
	if gauge := reg.Gauge("serve_render_cache_bytes").Value(); gauge <= 0 {
		t.Fatalf("serve_render_cache_bytes=%g after re-render, want > 0", gauge)
	}
}

// TestRenderCacheBudget pins the render tier's byte budget: over-budget
// Puts evict the least recently used body first, a body over a quarter
// of the budget is returned but not retained, and the bytes/entries
// gauges track Bytes()/Len() throughout.
func TestRenderCacheBudget(t *testing.T) {
	body := func(n int) []byte { return []byte(strings.Repeat("x", n)) }
	// Entries of one key length and one body cost the same; measure that
	// cost on an unbounded tier.
	probe := serve.NewRenderCache(1<<20, obs.NewRegistry())
	probe.Put("k0", serve.Params{}, body(500), true)
	size := probe.Bytes()

	reg := obs.NewRegistry()
	rc := serve.NewRenderCache(4*size, reg) // four entries fit; a quarter is one entry
	gauges := func(when string) {
		t.Helper()
		if b := reg.Gauge("serve_render_cache_bytes").Value(); b != float64(rc.Bytes()) {
			t.Fatalf("%s: serve_render_cache_bytes=%g, Bytes()=%d", when, b, rc.Bytes())
		}
		if n := reg.Gauge("serve_render_cache_entries").Value(); n != float64(rc.Len()) {
			t.Fatalf("%s: serve_render_cache_entries=%g, Len()=%d", when, n, rc.Len())
		}
	}
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		rc.Put(k, serve.Params{}, body(500), true)
	}
	if rc.Len() != 4 || rc.Bytes() != 4*size {
		t.Fatalf("four bodies in a four-body budget: len=%d bytes=%d, want 4 / %d", rc.Len(), rc.Bytes(), 4*size)
	}
	gauges("full")
	rc.Get("k1") // k2 is now the least recently used
	rc.Put("k5", serve.Params{}, body(500), true)
	if got := reg.Counter("serve_render_cache_evictions_total").Value(); got != 1 {
		t.Fatalf("serve_render_cache_evictions_total=%d, want 1", got)
	}
	if _, ok := rc.Get("k2"); ok {
		t.Fatal("k2 survived; the least recently used body must be evicted first")
	}
	for _, k := range []string{"k1", "k3", "k4", "k5"} {
		if _, ok := rc.Get(k); !ok {
			t.Fatalf("%s evicted; only k2 should go", k)
		}
	}
	gauges("after eviction")

	big := body(501) // one byte over a quarter of the budget
	// A JSON entry holds the report as the string literal that closes the
	// envelope, so the returned entry must decode back to the body.
	var got string
	if e := rc.Put("k6", serve.Params{}, big, true); e == nil ||
		json.Unmarshal(bytes.TrimSuffix(e.Body, []byte("}\n")), &got) != nil || got != string(big) {
		t.Fatal("over-quarter body not returned to the caller")
	}
	if got := reg.Counter("serve_render_cache_rejected_total").Value(); got != 1 {
		t.Fatalf("serve_render_cache_rejected_total=%d, want 1", got)
	}
	if _, ok := rc.Get("k6"); ok || rc.Len() != 4 || rc.Bytes() != 4*size {
		t.Fatalf("over-quarter body retained: len=%d bytes=%d", rc.Len(), rc.Bytes())
	}
	if got := reg.Counter("serve_render_cache_evictions_total").Value(); got != 1 {
		t.Fatalf("rejected Put evicted: serve_render_cache_evictions_total=%d", got)
	}
	gauges("after rejection")
}
