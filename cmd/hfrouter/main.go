// Command hfrouter fronts N hfserved shards with a consistent-hash ring:
// each report key and dataset digest has exactly one owning shard, so the
// shards hold disjoint result caches and dataset stores and cache
// capacity scales with the shard count (see DESIGN.md §3.6).
//
// Routing:
//
//	GET    /v1/report*         by the canonical parameter key (?dataset= by id)
//	POST   /v1/datasets        parsed, digested, forwarded to the digest's
//	                           owner plus -rf minus 1 ring successors
//	POST   /v1/datasets/{id}/events  by dataset id to the owner (replicas
//	                           receive the same batch so generations stay in step)
//	GET    /v1/datasets        scatter-gather union across healthy shards
//	DELETE /v1/datasets/{id}   to every shard that could hold a copy
//	GET    /v1/sections|stages any healthy shard (identical everywhere)
//	GET    /healthz            the router's own ring-membership view
//	GET    /metrics            router_* metrics (Prometheus text)
//
// Shards are probed on /healthz every -health-interval; -health-fails
// consecutive failures eject a shard (its keys fail over clockwise), one
// success readmits it. Connection errors and shutting_down responses
// retry on the next shard with doubling backoff (-retries, -retry-backoff).
// Report keys seen -hot-threshold+ times are hedged: a second shard is
// raced once the observed report p99 (floored by -hedge-delay) elapses,
// the first response wins, and the loser is cancelled. Responses carry
// X-Shard (who answered) and X-Hedged (a hedge was fired); request ids
// propagate client → router → shard so all three logs join on one id.
//
// Usage:
//
//	hfrouter -addr :8090 -shards http://127.0.0.1:8101,http://127.0.0.1:8102
//	hfrouter -rf 2 -retries 2 -hedge-delay 50ms -hot-threshold 3
//	hfrouter -vnodes 128 -health-interval 2s -health-fails 2
//	hfrouter -log-format json
//	hfrouter -version
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
	"strings"
	"syscall"
	"time"

	"turnup/internal/obs"
	"turnup/internal/ring"
	"turnup/internal/serve"
	"turnup/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hfrouter: ")
	addr := flag.String("addr", ":8090", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs (required)")
	vnodes := flag.Int("vnodes", 128, "virtual nodes per shard on the hash ring")
	rf := flag.Int("rf", 1, "dataset replication factor (owner + rf-1 successors)")
	retries := flag.Int("retries", 2, "retry budget for connection errors and retryable shard failures")
	retryBackoff := flag.Duration("retry-backoff", 25*time.Millisecond, "first retry delay (doubles per attempt)")
	hedgeDelay := flag.Duration("hedge-delay", 100*time.Millisecond, "hedge trigger floor (and stand-in until a report p99 accumulates)")
	hotThreshold := flag.Int("hot-threshold", 3, "report-key sightings before its requests are hedged")
	defaultScale := flag.Float64("default-scale", 0.05, "?scale= default, must match the shards'")
	defaultK := flag.Int("default-k", 12, "?k= default (1..16), must match the shards'")
	maxDatasetBytes := flag.Int64("max-dataset-bytes", 256<<20, "upload body cap (mirror the shards')")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "shard /healthz probe period")
	healthTimeout := flag.Duration("health-timeout", time.Second, "per-probe deadline")
	healthFails := flag.Int("health-fails", 2, "consecutive probe failures before ejection")
	proxyTimeout := flag.Duration("proxy-timeout", 120*time.Second, "per-forwarded-request deadline")
	logFormat := flag.String("log-format", "text", "access-log format: text, json, or none")
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
	var shardList []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSuffix(strings.TrimSpace(s), "/"); s != "" {
			shardList = append(shardList, s)
		}
	}
	if len(shardList) == 0 {
		log.Fatal("-shards is required (comma-separated base URLs)")
	}
	accessLog, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()

	router, err := ring.NewRouter(ring.RouterOptions{
		Shards:          shardList,
		VNodes:          *vnodes,
		RF:              *rf,
		Retries:         *retries,
		RetryBackoff:    *retryBackoff,
		HedgeDelay:      *hedgeDelay,
		HotThreshold:    *hotThreshold,
		DefaultScale:    *defaultScale,
		DefaultK:        *defaultK,
		MaxDatasetBytes: *maxDatasetBytes,
		Client:          &http.Client{Timeout: *proxyTimeout},
		Metrics:         reg,
		AccessLog:       accessLog,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	checker := ring.NewHealthChecker(router.Ring(), ring.HealthOptions{
		Interval:  *healthInterval,
		Timeout:   *healthTimeout,
		FailAfter: *healthFails,
		Metrics:   reg,
		Log:       accessLog,
	})
	go checker.Run(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: router}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("version %s listening on %s, routing %d shards (%d vnodes, rf=%d)",
		version.String(), ln.Addr(), len(shardList), *vnodes, *rf)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining for up to %s", *shutdownTimeout)
	sdCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("bye")
}
