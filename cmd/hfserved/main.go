// Command hfserved serves the simulate→analyse pipeline over HTTP behind
// a deduplicating result cache: identical requests are answered from a
// size-bounded LRU, identical concurrent requests coalesce onto one
// pipeline run, and a semaphore caps how many runs execute at once (see
// DESIGN.md §3.3).
//
// Endpoints:
//
//	GET    /v1/report               full report (all sections)
//	GET    /v1/report/{section}     one or more (comma-separated) sections
//	       ?seed= &scale= &k= &models= &stages= &dataset= &window= &as-of= &format=text|json
//	POST   /v1/datasets             upload an hfgen CSV pair (multipart or zip)
//	POST   /v1/datasets/{id}/events append an event batch (JSON lines or contract CSV)
//	GET    /v1/datasets             list stored datasets (id, digest, generation, counts, ledger)
//	DELETE /v1/datasets/{id}        drop a stored dataset
//	GET    /v1/sections             report-section vocabulary
//	GET    /v1/stages               analysis stage DAG (name, deps, model)
//	GET    /healthz                 liveness + version + cache/dataset counts (?format=json)
//	GET    /metrics                 Prometheus text exposition (?format=json, gzip-aware)
//	GET    /debug/pprof/...         with -pprof
//
// Reports over an uploaded corpus (?dataset=<id>) skip generation and
// analyse the stored dataset; uploaded corpora carry no ledger, so those
// responses set X-Dataset-Ledger: absent and the §4.5 audit reports its
// high-value contracts as unverifiable.
//
// Uploaded datasets are live: POST /v1/datasets/{id}/events appends a
// validated batch of user/contract events, bumping the dataset's
// generation (X-Dataset-Generation on reports) and invalidating exactly
// the cached reports the append supersedes. ?window=30d|90d|era-to-date
// and ?as-of=YYYY-MM-DD select a time-windowed view of a dataset-backed
// report.
//
// Every request is assigned a request id (an inbound X-Request-Id is
// honoured), echoed on the X-Request-Id response header, stamped on the
// per-request trace span, and logged — method, route, status, bytes,
// duration, cache state — on stderr in key=value or JSON form
// (-log-format text|json|none). A runtime collector samples goroutine,
// heap, and GC gauges onto /metrics every -runtime-metrics interval.
//
// Usage:
//
//	hfserved -addr :8080
//	hfserved -cache 128 -max-runs 4 -workers 8
//	hfserved -max-scale 0.25 -default-scale 0.05
//	hfserved -max-datasets 8 -max-dataset-bytes 67108864
//	hfserved -log-format json        # machine-parsed access log
//	hfserved -pprof -trace           # pprof endpoints + span tree on exit
//	hfserved -version
//
// SIGINT/SIGTERM shuts down gracefully: in-flight pipeline runs are
// cancelled through the pipeline's context threading (waiters get 503),
// open connections drain within -shutdown-timeout, and with -trace the
// request span tree is flushed to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"turnup/internal/obs"
	"turnup/internal/serve"
	"turnup/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hfserved: ")
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 64, "completed results retained in the LRU (count bound, secondary to -max-cache-bytes)")
	maxCacheBytes := flag.Int64("max-cache-bytes", 1<<30, "result cache byte budget; entries are sized at admission and evicted by bytes, and results over a quarter of it are never cached")
	renderCacheBytes := flag.Int64("render-cache-bytes", 64<<20, "rendered-section cache byte budget (0 = default, negative disables the tier)")
	maxRuns := flag.Int("max-runs", 2, "concurrent pipeline runs (cache hits bypass this cap)")
	workers := flag.Int("workers", 0, "concurrent analysis stages per run (0 = GOMAXPROCS)")
	maxScale := flag.Float64("max-scale", 1.0, "largest accepted ?scale= parameter")
	defaultScale := flag.Float64("default-scale", 0.05, "?scale= default")
	defaultK := flag.Int("default-k", 12, "?k= default (latent class count, 1..16)")
	shard := flag.String("shard", "", "shard name stamped on X-Shard and envelope metadata (hfrouter members: the advertised base URL)")
	maxDatasets := flag.Int("max-datasets", 16, "uploaded datasets retained (LRU eviction beyond)")
	maxDatasetBytes := flag.Int64("max-dataset-bytes", 256<<20, "per-upload body cap and total dataset-store bytes")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	trace := flag.Bool("trace", false, "record per-request spans; span tree printed on stderr at exit")
	logFormat := flag.String("log-format", "text", "access-log format: text, json, or none")
	runtimeEvery := flag.Duration("runtime-metrics", 5*time.Second, "runtime gauge sampling interval (0 disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "drain deadline after SIGINT/SIGTERM")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if *defaultK < 1 || *defaultK > serve.MaxK {
		log.Fatalf("-default-k %d out of range [1, %d]", *defaultK, serve.MaxK)
	}
	accessLog, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// runCtx bounds every pipeline run the cache starts; cancelling it on
	// shutdown aborts in-flight runs between months / stages.
	runCtx, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()

	var tracer *obs.Tracer
	if *trace {
		tracer = obs.NewTracer("hfserved")
	}
	reg := obs.NewRegistry()
	if *runtimeEvery > 0 {
		stopCollector := obs.StartRuntimeCollector(reg, *runtimeEvery)
		defer stopCollector()
	}
	srv := serve.New(serve.Options{
		Shard:            *shard,
		CacheSize:        *cache,
		MaxCacheBytes:    *maxCacheBytes,
		RenderCacheBytes: *renderCacheBytes,
		MaxRuns:          *maxRuns,
		Workers:          *workers,
		MaxScale:         *maxScale,
		DefaultScale:     *defaultScale,
		DefaultK:         *defaultK,
		MaxDatasets:      *maxDatasets,
		MaxDatasetBytes:  *maxDatasetBytes,
		Metrics:          reg,
		AccessLog:        accessLog,
		Trace:            tracer,
		Pprof:            *pprofFlag,
		BaseContext:      runCtx,
	})
	// Listen explicitly (rather than ListenAndServe) so ":0" ephemeral
	// binds log the port that was actually chosen.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("version %s listening on %s", version.String(), ln.Addr())

	select {
	case err := <-errc:
		log.Fatal(err) // bind failure etc.
	case <-ctx.Done():
	}

	log.Printf("shutting down: cancelling in-flight runs, draining for up to %s", *shutdownTimeout)
	cancelRuns()
	sdCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	if tracer != nil {
		obs.WriteText(os.Stderr, tracer.Finish())
	}
	log.Printf("bye")
}
