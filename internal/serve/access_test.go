// Tests for the request-level observability plumbing: request-id
// assignment and propagation, the structured access log, the per-route
// latency histograms, and the versioned health endpoint.
package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"turnup"
	"turnup/internal/obs"
	"turnup/internal/serve"
)

// logBuffer collects access-log lines; the logger serialises writes but
// the test's reads need their own lock under -race.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) Lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := strings.TrimSuffix(l.b.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// accessServer boots a stub-runner server with a JSON access log.
func accessServer(t *testing.T) (*httptest.Server, *logBuffer) {
	t.Helper()
	res := tinyResults(t)
	buf := &logBuffer{}
	accessLog, err := obs.NewLogger(buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{
		AccessLog: accessLog,
		Metrics:   obs.NewRegistry(),
		Runner: func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
			return res, nil
		},
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, buf
}

// TestRequestIDPropagation: an inbound X-Request-Id is echoed on the
// response and appears verbatim in the access log; requests without one
// get a generated id that still matches header-to-log.
func TestRequestIDPropagation(t *testing.T) {
	ts, buf := accessServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/report/growth?seed=1&scale=0.02&models=false", nil)
	req.Header.Set("X-Request-Id", "client-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-trace-42" {
		t.Fatalf("inbound id not echoed: X-Request-Id = %q", got)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	generated := resp2.Header.Get("X-Request-Id")
	if generated == "" {
		t.Fatal("no generated X-Request-Id on response")
	}

	// A hostile inbound id (log-injection shaped) is replaced, not echoed.
	req3, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req3.Header.Set("X-Request-Id", `evil" status=200 x="`)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, `"`) {
		t.Fatalf("unsafe inbound id handling: X-Request-Id = %q", got)
	}

	ids := map[string]bool{}
	for _, line := range buf.Lines() {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if id, _ := m["id"].(string); id != "" {
			ids[id] = true
		}
	}
	for _, want := range []string{"client-trace-42", generated} {
		if !ids[want] {
			t.Errorf("access log missing request id %q (got %v)", want, ids)
		}
	}
}

// TestAccessLogShape pins the JSON access-log schema the docs promise:
// id, method, route, path, status, bytes, dur_ms, cache.
func TestAccessLogShape(t *testing.T) {
	ts, buf := accessServer(t)
	url := ts.URL + "/v1/report/growth?seed=9&scale=0.02&models=false"
	if code, cache, _ := get(t, url); code != 200 || cache != "miss" {
		t.Fatalf("cold request: %d %q", code, cache)
	}
	if code, cache, _ := get(t, url); code != 200 || cache != "hit" {
		t.Fatalf("warm request: %d %q", code, cache)
	}

	var got []map[string]any
	for _, line := range buf.Lines() {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if m["route"] == "/v1/report/{section}" {
			got = append(got, m)
		}
	}
	if len(got) != 2 {
		t.Fatalf("report log lines = %d, want 2", len(got))
	}
	for i, m := range got {
		if m["event"] != "request" || m["method"] != "GET" {
			t.Errorf("line %d event/method: %v", i, m)
		}
		if m["path"] != "/v1/report/growth" {
			t.Errorf("line %d path = %v", i, m["path"])
		}
		if m["status"] != 200.0 {
			t.Errorf("line %d status = %v", i, m["status"])
		}
		if b, ok := m["bytes"].(float64); !ok || b <= 0 {
			t.Errorf("line %d bytes = %v", i, m["bytes"])
		}
		if d, ok := m["dur_ms"].(float64); !ok || d < 0 {
			t.Errorf("line %d dur_ms = %v", i, m["dur_ms"])
		}
		if id, _ := m["id"].(string); id == "" {
			t.Errorf("line %d missing id", i)
		}
	}
	if got[0]["cache"] != "miss" || got[1]["cache"] != "hit" {
		t.Errorf("cache states = %v, %v; want miss, hit", got[0]["cache"], got[1]["cache"])
	}
}

// TestPerRouteHistograms: each request lands in the
// serve_http_request_seconds series labelled with its route and status,
// and the exposition keeps the labels on every summary sample.
func TestPerRouteHistograms(t *testing.T) {
	ts, _ := accessServer(t)
	mustGet(t, ts.URL+"/v1/report/growth?seed=1&scale=0.02&models=false")
	get(t, ts.URL+"/v1/report/nope") // 400: separate status series
	metrics := mustGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		`serve_http_request_seconds{route="/v1/report/{section}",status="200",quantile="0.99"} `,
		`serve_http_request_seconds_count{route="/v1/report/{section}",status="200"} 1`,
		`serve_http_request_seconds_count{route="/v1/report/{section}",status="400"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := strings.Count(metrics, "# TYPE serve_http_request_seconds summary"); got != 1 {
		t.Errorf("TYPE lines for serve_http_request_seconds = %d, want 1", got)
	}
}

// TestHealthzJSON: the version surfaces in /healthz JSON alongside cache
// and dataset state, and turnup_build_info is on /metrics.
func TestHealthzJSON(t *testing.T) {
	ts, _ := accessServer(t)
	var h struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, ts.URL+"/healthz?format=json")), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" || h.UptimeSeconds < 0 {
		t.Fatalf("healthz json = %+v", h)
	}
	if body := mustGet(t, ts.URL+"/healthz"); !strings.HasPrefix(body, "ok version=") {
		t.Fatalf("healthz text = %q", body)
	}
	if metrics := mustGet(t, ts.URL+"/metrics"); !strings.Contains(metrics, `turnup_build_info{version=`) {
		t.Error("/metrics missing turnup_build_info")
	}
}
