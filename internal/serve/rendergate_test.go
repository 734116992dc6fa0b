//go:build !race

package serve_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"turnup/internal/serve"
)

// hotReportTime is the mean latency of n fully-warm /v1/report requests
// on a server built with opts, after one priming request.
func hotReportTime(t *testing.T, opts serve.Options, n int) time.Duration {
	t.Helper()
	ts := httptest.NewServer(serve.New(opts))
	defer ts.Close()
	url := ts.URL + "/v1/report?seed=1&scale=0.02&models=false"
	benchGet(t, url) // prime the cache tiers
	start := time.Now()
	for i := 0; i < n; i++ {
		benchGet(t, url)
	}
	return time.Since(start) / time.Duration(n)
}

// TestRenderCacheHitGate is the render tier's performance gate: over 200
// requests each, the fully-warm /v1/report hit served from the
// rendered-section cache must be at least 2x faster than the same hit
// re-rendered on every request (render tier disabled), or the tier is
// not paying for its memory. It is the BenchmarkServeHotRenderCached /
// Uncached pair as a test, and is left out of race builds, whose
// instrumentation distorts the ratio.
func TestRenderCacheHitGate(t *testing.T) {
	const n = 200
	cached := hotReportTime(t, serve.Options{}, n)
	uncached := hotReportTime(t, serve.Options{RenderCacheBytes: -1}, n)
	t.Logf("cached hit %v, re-render %v (%.1fx)", cached, uncached, float64(uncached)/float64(cached))
	if 2*cached > uncached {
		t.Fatalf("cached hit %v is not 2x faster than the %v re-render", cached, uncached)
	}
}
