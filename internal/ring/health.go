package ring

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"turnup/internal/obs"
)

// HealthOptions configures the ring's shard health checker.
type HealthOptions struct {
	Interval  time.Duration // probe period (default 2s)
	Timeout   time.Duration // per-probe deadline (default 1s)
	FailAfter int           // consecutive failures before ejection (default 2)
	Client    *http.Client  // probe client (default: fresh client with Timeout)
	Metrics   *obs.Registry // router_shard_healthy gauges + ejection counters (nil = none-safe fresh registry)
	Log       *slog.Logger  // ejection/readmission events (nil = none)
}

// HealthChecker drives ring membership from GET /healthz probes: a shard
// answering non-200 (or not answering) FailAfter times in a row is
// ejected — its keys fail over to their clockwise successors — and a
// single successful probe readmits it, restoring the original
// assignment. Probes for all shards run concurrently so one hung shard
// cannot delay detection on the others.
type HealthChecker struct {
	ring   *Ring
	opts   HealthOptions
	client *http.Client
	reg    *obs.Registry

	mu    sync.Mutex
	fails map[string]int
}

// NewHealthChecker builds a checker over ring (see HealthOptions for
// defaults). Call Run to start probing.
func NewHealthChecker(ring *Ring, opts HealthOptions) *HealthChecker {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = time.Second
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = 2
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.Timeout}
	}
	h := &HealthChecker{ring: ring, opts: opts, client: client, reg: opts.Metrics, fails: make(map[string]int)}
	for _, s := range ring.Shards() {
		h.gauge(s, true)
	}
	return h
}

// Run probes until ctx is cancelled. It blocks; callers run it in a
// goroutine. One probe round fires immediately so a dead shard is
// ejected within FailAfter×Interval of boot, not one interval later.
func (h *HealthChecker) Run(ctx context.Context) {
	t := time.NewTicker(h.opts.Interval)
	defer t.Stop()
	for {
		h.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probeAll probes every shard concurrently and applies the results.
func (h *HealthChecker) probeAll(ctx context.Context) {
	shards := h.ring.Shards()
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(shard string) {
			defer wg.Done()
			h.apply(shard, h.probe(ctx, shard))
		}(s)
	}
	wg.Wait()
}

// probe issues one GET /healthz against shard.
func (h *HealthChecker) probe(ctx context.Context, shard string) error {
	ctx, cancel := context.WithTimeout(ctx, h.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", shard+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}

// apply folds one probe outcome into the failure counts and the ring.
func (h *HealthChecker) apply(shard string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		h.fails[shard] = 0
		if h.ring.SetHealthy(shard, true) {
			h.reg.Counter("router_shard_readmissions_total").Inc()
			h.gauge(shard, true)
			if h.opts.Log != nil {
				h.opts.Log.Info("shard_readmitted", "shard", shard)
			}
		}
		return
	}
	h.fails[shard]++
	if h.fails[shard] >= h.opts.FailAfter && h.ring.SetHealthy(shard, false) {
		h.reg.Counter("router_shard_ejections_total").Inc()
		h.gauge(shard, false)
		if h.opts.Log != nil {
			h.opts.Log.Info("shard_ejected", "shard", shard, "fails", h.fails[shard], "err", err.Error())
		}
	}
}

// gauge publishes the per-shard health bit.
func (h *HealthChecker) gauge(shard string, healthy bool) {
	v := 0.0
	if healthy {
		v = 1
	}
	h.reg.Gauge(fmt.Sprintf(`router_shard_healthy{shard=%q}`, shard)).Set(v)
}
