// Tests for the HTTP analysis service: cache hits, request coalescing,
// LRU eviction, 400 vocabulary errors, shutdown cancellation, and the
// registry endpoints — race-clean under `go test -race`.
//
// Cache mechanics are pinned with stub runners returning a small real
// Results (generated once at Scale 0.02, models skipped), so assertions
// exercise the full render path without per-test pipeline cost;
// TestRealPipeline covers the production runner end to end.
package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"context"

	"turnup"
	"turnup/internal/obs"
	"turnup/internal/serve"
)

var (
	tinyOnce sync.Once
	tinyRes  *turnup.Results
	tinyErr  error
)

// tinyResults generates one small corpus + descriptive-only suite shared
// by every stub runner in this file.
func tinyResults(t testing.TB) *turnup.Results {
	t.Helper()
	tinyOnce.Do(func() {
		var d *turnup.Dataset
		if d, tinyErr = turnup.Generate(turnup.Config{Seed: 7, Scale: 0.02}); tinyErr != nil {
			return
		}
		tinyRes, tinyErr = turnup.Run(d, turnup.RunOptions{Seed: 7, SkipModels: true})
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyRes
}

// tryGet issues a GET and returns (status code, X-Cache header, body);
// unlike get it is safe to call off the test goroutine.
func tryGet(url string) (int, string, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), string(body), nil
}

// get issues a GET and returns (status code, X-Cache header, body).
func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	code, cache, body, err := tryGet(url)
	if err != nil {
		t.Fatal(err)
	}
	return code, cache, body
}

func TestColdRunThenCacheHit(t *testing.T) {
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
	defer ts.Close()

	url := ts.URL + "/v1/report/growth?seed=7&scale=0.02&models=false"
	code, cache, body := get(t, url)
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("cold request: code=%d cache=%q, want 200 miss", code, cache)
	}
	if !strings.Contains(body, "Figure 1: Monthly growth") {
		t.Fatalf("cold request body missing growth section:\n%s", body)
	}
	code, cache, body2 := get(t, url)
	if code != http.StatusOK || cache != "hit" {
		t.Fatalf("repeat request: code=%d cache=%q, want 200 hit", code, cache)
	}
	if body2 != body {
		t.Fatal("cache hit rendered different bytes than the cold run")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("pipeline ran %d times, want 1", n)
	}
	// The hit is observable on /metrics, as the acceptance criteria demand.
	// The repeat request lands in the render tier (the rendered body was
	// installed on the cold run), so the result cache records only the miss
	// while the render cache records one miss then one hit.
	code, _, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code=%d", code)
	}
	for _, want := range []string{"serve_render_cache_hits_total 1", "serve_render_cache_misses_total 1", "serve_cache_misses_total 1", "serve_http_requests_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestConcurrentRequestsCoalesce(t *testing.T) {
	res := tinyResults(t)
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	reg := obs.NewRegistry()
	srv := serve.New(serve.Options{
		Metrics: reg,
		Runner: func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
			runs.Add(1)
			once.Do(func() { close(started) })
			<-release
			return res, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 8
	url := ts.URL + "/v1/report/growth?seed=1&scale=0.02"
	type outcome struct {
		code  int
		cache string
		err   error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			code, cache, _, err := tryGet(url)
			results <- outcome{code, cache, err}
		}()
	}
	<-started // the one pipeline run is in flight; everything else must wait on it
	close(release)

	counts := map[string]int{}
	for i := 0; i < n; i++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.code != http.StatusOK {
			t.Fatalf("request %d: code=%d", i, out.code)
		}
		counts[out.cache]++
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran the pipeline %d times, want 1", n, got)
	}
	if counts["miss"] != 1 {
		t.Fatalf("want exactly 1 miss, got %v", counts)
	}
	// Requests that arrived while the run was in flight coalesced; any that
	// arrived after completion are plain hits. Either way: one run.
	if counts["coalesced"]+counts["hit"] != n-1 {
		t.Fatalf("want %d coalesced+hit, got %v", n-1, counts)
	}
}

func TestLRUEviction(t *testing.T) {
	res := tinyResults(t)
	var mu sync.Mutex
	runsBySeed := map[uint64]int{}
	reg := obs.NewRegistry()
	srv := serve.New(serve.Options{
		CacheSize: 2,
		// This test pins the result tier's LRU mechanics; the render tier
		// would otherwise serve seed 1 from its cached body after the result
		// eviction and hide the re-run.
		RenderCacheBytes: -1,
		Metrics:          reg,
		Runner: func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
			mu.Lock()
			runsBySeed[p.Seed]++
			mu.Unlock()
			return res, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, seed := range []int{1, 2, 3} { // capacity 2: seed 1 falls out
		if code, _, _ := get(t, fmt.Sprintf("%s/v1/report/growth?seed=%d", ts.URL, seed)); code != http.StatusOK {
			t.Fatalf("seed %d: code=%d", seed, code)
		}
	}
	if got := srv.Cache().Len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	code, cache, _ := get(t, ts.URL+"/v1/report/growth?seed=1")
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("evicted seed: code=%d cache=%q, want 200 miss", code, cache)
	}
	mu.Lock()
	if runsBySeed[1] != 2 {
		t.Fatalf("seed 1 ran %d times, want 2 (evicted between)", runsBySeed[1])
	}
	mu.Unlock()
	if metrics := mustGet(t, ts.URL+"/metrics"); !strings.Contains(metrics, "serve_cache_evictions_total 2") {
		t.Fatalf("/metrics eviction counter, want 2 evictions:\n%s", metrics)
	}
}

func TestBadParamsReturn400(t *testing.T) {
	srv := serve.New(serve.Options{
		MaxScale: 0.1,
		Runner: func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
			t.Error("pipeline ran for an invalid request")
			return nil, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		url  string
		want string // substring of the error body
	}{
		{"/v1/report/nope", "unknown section"},
		{"/v1/report/nope", "growth"}, // the 400 lists the valid vocabulary
		{"/v1/report/growth?stages=Bogus", "unknown stage"},
		{"/v1/report/growth?stages=Bogus", "Taxonomy"},
		{"/v1/report/growth?seed=abc", "bad seed"},
		{"/v1/report/growth?scale=0.5", "out of range"}, // MaxScale 0.1
		{"/v1/report/growth?scale=-1", "out of range"},
		{"/v1/report/growth?models=false&scale=NaN", "out of range"},
		{"/v1/report/growth?models=false&scale=nan", "out of range"},
		{"/v1/report/growth?k=0", "bad k"},
		{"/v1/report/growth?k=17", "bad k"}, // MaxK 16
		{"/v1/report/growth?k=100000", "bad k"},
		{"/v1/report/growth?models=maybe", "bad models"},
		{"/v1/report/zip-all?models=false&stages=ZIPAll", "model stage"},
	}
	for _, tc := range cases {
		code, _, body := get(t, ts.URL+tc.url)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code=%d, want 400", tc.url, code)
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s: body %q missing %q", tc.url, body, tc.want)
		}
	}
	// JSON errors for JSON requests, in the structured v1 envelope.
	code, _, body := get(t, ts.URL+"/v1/report/nope?format=json")
	if code != http.StatusBadRequest {
		t.Fatalf("json error: code=%d", code)
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error.Message == "" {
		t.Fatalf("json error body %q not an {error:{code,message}} envelope (%v)", body, err)
	}
	if e.Error.Code != serve.CodeBadParams {
		t.Fatalf("json error code %q, want %q", e.Error.Code, serve.CodeBadParams)
	}
}

func TestShutdownCancelsInflightRun(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	srv := serve.New(serve.Options{
		BaseContext: base,
		Runner: func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
			close(started)
			<-ctx.Done() // a real run observes cancellation between months/stages
			return nil, ctx.Err()
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type outcome struct {
		code int
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		code, _, _, err := tryGet(ts.URL + "/v1/report/growth?seed=1")
		done <- outcome{code, err}
	}()
	<-started
	cancel() // shutdown: the base context aborts the in-flight run
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled run answered %d, want 503", out.code)
	}
}

func TestRegistryEndpoints(t *testing.T) {
	srv := serve.New(serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var sectionBody struct {
		Sections []string `json:"sections"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, ts.URL+"/v1/sections?format=json")), &sectionBody); err != nil {
		t.Fatal(err)
	}
	if sections := sectionBody.Sections; len(sections) == 0 || sections[0] != "taxonomy" {
		t.Fatalf("sections = %v", sections)
	}
	var stageBody struct {
		Stages []struct {
			Name  string   `json:"name"`
			Deps  []string `json:"deps"`
			Model bool     `json:"model"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, ts.URL+"/v1/stages?format=json")), &stageBody); err != nil {
		t.Fatal(err)
	}
	byName := map[string]bool{}
	for _, st := range stageBody.Stages {
		byName[st.Name] = true
	}
	if !byName["Taxonomy"] || !byName["ZIPAll"] {
		t.Fatalf("stages missing expected names: %v", byName)
	}
	if body := mustGet(t, ts.URL+"/healthz"); !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthz body %q", body)
	}
}

// TestRealPipeline exercises the production runner (generate→analyse) end
// to end at a tiny scale: a cold run renders a real section, an identical
// repeat is a cache hit, and JSON format round-trips.
func TestRealPipeline(t *testing.T) {
	srv := serve.New(serve.Options{MaxScale: 0.05})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	url := ts.URL + "/v1/report/growth,corpus?seed=3&scale=0.02&models=false"
	code, cache, body := get(t, url)
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("cold: code=%d cache=%q", code, cache)
	}
	if !strings.Contains(body, "Figure 1: Monthly growth") {
		t.Fatalf("missing growth section:\n%s", body)
	}
	code, cache, _ = get(t, url)
	if code != http.StatusOK || cache != "hit" {
		t.Fatalf("repeat: code=%d cache=%q, want 200 hit", code, cache)
	}
	var rr struct {
		Cache  string `json:"cache"`
		Report string `json:"report"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, url+"&format=json")), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Cache != "hit" || !strings.Contains(rr.Report, "Figure 1") {
		t.Fatalf("json response: cache=%q report len=%d", rr.Cache, len(rr.Report))
	}
}

// mustGet fetches url and returns the body, failing the test on any error
// or non-200 status.
func mustGet(t *testing.T, url string) string {
	t.Helper()
	code, _, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: code=%d body=%q", url, code, body)
	}
	return body
}
