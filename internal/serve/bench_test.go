// Benchmarks contrasting the two request regimes of the analysis service:
// a cache hit (LRU lookup + render + HTTP) versus a cold request that
// pays for a full generate→analyse pipeline run. Run with
//
//	go test -bench 'Serve' -benchtime 3x ./internal/serve/
//
// The gap is the cache's value proposition: hits are microseconds-to-
// milliseconds while cold runs are seconds at real scales.
package serve_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"turnup"
	"turnup/internal/forum"
	"turnup/internal/ingest"
	"turnup/internal/obs"
	"turnup/internal/serve"
)

// benchGet fetches url and discards the body.
func benchGet(b testing.TB, url string) { benchGetHdr(b, url, "") }

// benchGetHdr fetches url with the given Accept-Encoding and discards the
// body. An empty encoding leaves the client's transparent gzip on; any
// other value turns it off, so the raw wire body is read.
func benchGetHdr(b testing.TB, url, acceptEncoding string) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		b.Fatal(err)
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: code=%d", url, resp.StatusCode)
	}
}

// BenchmarkServeCacheHit measures a repeated identical request: after one
// priming run, every iteration is an LRU hit.
func BenchmarkServeCacheHit(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Options{}))
	defer ts.Close()
	url := ts.URL + "/v1/report/growth?seed=1&scale=0.02&models=false"
	benchGet(b, url) // prime the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
}

// BenchmarkServeHotRenderCached measures the full hot path with the
// rendered-section cache at its default budget: after the priming run,
// every iteration serves the full /v1/report body as a memcpy of the
// cached rendering.
func BenchmarkServeHotRenderCached(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Options{}))
	defer ts.Close()
	url := ts.URL + "/v1/report?seed=1&scale=0.02&models=false"
	benchGet(b, url) // prime both cache tiers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
}

// benchHotJSON measures the warm full report as a JSON envelope, with
// the given Accept-Encoding: every iteration is a render-tier hit that
// encodes only the envelope head around the cached report.
func benchHotJSON(b *testing.B, acceptEncoding string) {
	ts := httptest.NewServer(serve.New(serve.Options{}))
	defer ts.Close()
	url := ts.URL + "/v1/report?seed=1&scale=0.02&models=false&format=json"
	benchGetHdr(b, url, acceptEncoding) // prime both cache tiers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGetHdr(b, url, acceptEncoding)
	}
}

// BenchmarkServeHotJSON is the warm JSON hit for an identity client.
func BenchmarkServeHotJSON(b *testing.B) { benchHotJSON(b, "identity") }

// BenchmarkServeHotJSONGzip is the warm JSON hit for a gzip client, whose
// body splices the envelope head into the entry's gzip variant; the
// client reads the compressed bytes without inflating them.
func BenchmarkServeHotJSONGzip(b *testing.B) { benchHotJSON(b, "gzip") }

// BenchmarkServeHotRenderUncached is the same hot request with the render
// tier disabled: every iteration is a result-cache hit that still pays
// for a full report render. The ratio against ServeHotRenderCached is the
// render cache's value proposition; TestRenderCacheHitGate enforces ≥2x.
func BenchmarkServeHotRenderUncached(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Options{RenderCacheBytes: -1}))
	defer ts.Close()
	url := ts.URL + "/v1/report?seed=1&scale=0.02&models=false"
	benchGet(b, url) // prime the result cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
}

// BenchmarkServeCold measures unique requests: every iteration uses a
// fresh seed, so each pays for a full pipeline run through the real
// runner at Scale 0.02 (descriptive stages only).
func BenchmarkServeCold(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Options{}))
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, fmt.Sprintf("%s/v1/report/growth?seed=%d&scale=0.02&models=false", ts.URL, i+1000))
	}
}

// liveBatch is the n-th three-event batch of a live stream: two new users
// and one completed public contract between them, created at. IDs lie
// above any generated corpus's, so every batch in a stream is valid.
func liveBatch(n int, at time.Time) *ingest.Batch {
	maker, taker := forum.UserID(5_000_000+2*n-1), forum.UserID(5_000_000+2*n)
	return &ingest.Batch{
		Users: []*forum.User{
			{ID: maker, Joined: at, FirstPost: at, Posts: 1, MarketplacePosts: 1, Reputation: 1},
			{ID: taker, Joined: at, FirstPost: at, Posts: 1, MarketplacePosts: 1, Reputation: 1},
		},
		Contracts: []*forum.Contract{{
			ID: forum.ContractID(9_000_000 + n), Type: forum.Exchange, Maker: maker, Taker: taker, Thread: 1,
			Created: at, Decided: at, Completed: at.Add(30 * time.Minute), Status: forum.StatusCompleted, Public: true,
			MakerObligation: "btc", TakerObligation: "paypal transfer", MakerRating: 1, TakerRating: 1,
		}},
	}
}

// benchStoreAppend appends b.N in-order three-event batches to a stored
// corpus of each given scale; with read set, each append is followed by
// a Snapshot, which derives the new generation's corpus and Index, and
// then by read over that snapshot. Batch construction is inside the loop
// and costs the same at every scale.
func benchStoreAppend(b *testing.B, scales []float64, read func(b *testing.B, snap *serve.Snapshot)) {
	for _, scale := range scales {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			d, err := turnup.Generate(turnup.Config{Seed: 1, Scale: scale})
			if err != nil {
				b.Fatal(err)
			}
			st := serve.NewStore(1, 1<<40, obs.NewRegistry())
			info, _, err := st.Add(d)
			if err != nil {
				b.Fatal(err)
			}
			base := ingest.MaxCreated(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Append(info.ID, liveBatch(i+1, base.Add(time.Duration(i+1)*time.Second))); err != nil {
					b.Fatal(err)
				}
				if read != nil {
					snap, ok := st.Snapshot(info.ID)
					if !ok {
						b.Fatal("snapshot of a stored dataset missing")
					}
					read(b, snap)
				}
			}
		})
	}
}

// BenchmarkStoreAppend measures back-to-back appends with no read between
// them: the O(batch) write path. Its ns/op and B/op should not grow with
// the corpus scale.
func BenchmarkStoreAppend(b *testing.B) { benchStoreAppend(b, []float64{0.02, 0.1}, nil) }

// BenchmarkStoreAppendThenSnapshot measures an append followed by a read
// of the new generation, which pays the O(corpus) derivation once.
func BenchmarkStoreAppendThenSnapshot(b *testing.B) {
	benchStoreAppend(b, []float64{0.02, 0.1}, func(*testing.B, *serve.Snapshot) {})
}

// BenchmarkStoreAppendThenReport measures an append followed by a
// models-off report of the new generation, rendered: the in-process twin
// of the post-append reads that perfbench's ingest-mixed workload times,
// at its scale. The report re-runs every descriptive stage over the
// derived Index, so it shows what the appended Index carries over from
// its parent and what it leaves to the stages.
func BenchmarkStoreAppendThenReport(b *testing.B) {
	benchStoreAppend(b, []float64{0.05}, func(b *testing.B, snap *serve.Snapshot) {
		res, err := turnup.Run(snap.D, turnup.RunOptions{Seed: 1, SkipModels: true, Index: snap.Ix})
		if err != nil {
			b.Fatal(err)
		}
		reportSink = turnup.RenderAll(res)
	})
}

var reportSink string
