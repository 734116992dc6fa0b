//go:build !race

package turnup

import (
	"context"
	"runtime"
	"testing"
	"time"

	"turnup/internal/analysis"
	"turnup/internal/market"
	"turnup/internal/rng"
)

// The descriptive suite's recorded cost before the columnar core: the
// BenchmarkSuiteDescriptive mean over 3 runs (seed 99, scale 0.05,
// GOMAXPROCS 1), in ns/op and allocs/op.
const (
	suiteSnapshotNs     = 112_600_272
	suiteSnapshotAllocs = 92_613
)

// TestSuiteDescriptiveGate is the descriptive suite's performance gate,
// on BenchmarkSuiteDescriptive's corpus and options. Each of three runs
// builds its own Index, so each pays for the corpus groups and the
// obligation table, and each must stay within 2x the snapshot's time — which catches reintroduced
// corpus rescans (10x-class regressions), not percent-level drift — and
// make at most half the snapshot's allocations, the drop the columnar
// core delivered. It is left out of race builds, whose instrumentation
// multiplies both measures.
func TestSuiteDescriptiveGate(t *testing.T) {
	d, _, err := market.Generate(market.Config{Seed: 99, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := analysis.RunSuiteCtx(context.Background(), d, analysis.SuiteOptions{SkipModels: true}, rng.New(1)); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("run %d: %v, %d allocs", run, elapsed, allocs)
		if elapsed > 2*suiteSnapshotNs {
			t.Errorf("run %d took %v, over 2x the %v snapshot", run, elapsed, time.Duration(suiteSnapshotNs))
		}
		if allocs > suiteSnapshotAllocs/2 {
			t.Errorf("run %d made %d allocs, over half the %d snapshot", run, allocs, suiteSnapshotAllocs)
		}
	}
}
