package turnup

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"turnup/internal/analysis"
)

// TestRenderAllDeterministicAcrossWorkers is the scheduler's headline
// guarantee: the full suite (models included, so both forked RNG streams
// are exercised) renders byte-identically for Workers ∈ {1, 4,
// GOMAXPROCS}, and across two runs at the same seed.
func TestRenderAllDeterministicAcrossWorkers(t *testing.T) {
	d, err := Generate(Config{Seed: 21, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		t.Helper()
		res, err := Run(d, RunOptions{Seed: 21, LatentClassK: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return RenderAll(res)
	}
	base := render(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := render(w); got != base {
			t.Errorf("RenderAll output differs between Workers=1 and Workers=%d", w)
		}
	}
	if render(runtime.GOMAXPROCS(0)) != base {
		t.Error("RenderAll output differs between two runs at the same seed")
	}
}

// TestRunStagesSubset checks the public stage-selection API: the subset
// plus its transitive deps runs, nothing else does.
func TestRunStagesSubset(t *testing.T) {
	d, _ := apiSuite(t)
	res, err := Run(d, RunOptions{Seed: 5, Stages: []string{"ValueTrend", "Corpus"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values.TotalUSD <= 0 {
		t.Error("Values (transitive dep of ValueTrend) not run")
	}
	if len(res.ValueTrend.ByType) == 0 {
		t.Error("ValueTrend not run")
	}
	if res.Corpus.Contracts == 0 {
		t.Error("Corpus not run")
	}
	if res.Taxonomy.Total != 0 || res.LTM != nil {
		t.Error("unrequested stages ran")
	}

	if _, err := Run(d, RunOptions{Seed: 5, Stages: []string{"NoSuchStage"}}); err == nil {
		t.Error("unknown stage accepted")
	}
}

// TestRunCtxCancellation covers both facade entry points: a cancelled
// context stops generation between months and the suite between stages.
func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateCtx(ctx, Config{Seed: 1, Scale: 0.02}); !errors.Is(err, context.Canceled) {
		t.Errorf("GenerateCtx err = %v, want context.Canceled", err)
	}
	d, _ := apiSuite(t)
	if _, err := RunCtx(ctx, d, RunOptions{Seed: 1, SkipModels: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx err = %v, want context.Canceled", err)
	}
}

// TestSectionRegistry pins the named-section render API: the registry
// covers every RenderAll block, a subset emits exactly the requested
// sections, and Render with no names reproduces RenderAll byte-for-byte.
func TestSectionRegistry(t *testing.T) {
	_, res := apiSuite(t)

	names := Sections()
	if len(names) != 29 {
		t.Fatalf("Sections() = %d entries, want 29", len(names))
	}
	var all strings.Builder
	if err := Render(&all, res); err != nil {
		t.Fatal(err)
	}
	if all.String() != RenderAll(res) {
		t.Error("Render with no sections diverges from RenderAll")
	}

	var sub strings.Builder
	if err := Render(&sub, res, "values", "taxonomy"); err != nil {
		t.Fatal(err)
	}
	out := sub.String()
	if !strings.Contains(out, "Table 5") || !strings.Contains(out, "Table 1") {
		t.Error("requested sections missing from subset render")
	}
	if strings.Contains(out, "Table 2") || strings.Contains(out, "Figure 1:") {
		t.Error("subset render leaked unrequested sections")
	}
	// Caller order is respected: values was asked for first.
	if strings.Index(out, "Table 5") > strings.Index(out, "Table 1") {
		t.Error("subset render ignored caller-given section order")
	}

	if err := Render(&sub, res, "no-such-section"); err == nil ||
		!strings.Contains(err.Error(), "unknown section") {
		t.Errorf("unknown section error = %v", err)
	}

	// Model sections render empty (not an error) when the models were
	// skipped — mirroring RenderAll's conditional blocks.
	d, _ := apiSuite(t)
	descr, err := Run(d, RunOptions{Seed: 5, SkipModels: true})
	if err != nil {
		t.Fatal(err)
	}
	var ltm strings.Builder
	if err := Render(&ltm, descr, "latent-classes", "zip-all"); err != nil {
		t.Fatal(err)
	}
	if ltm.String() != "" {
		t.Errorf("model sections rendered %q on a SkipModels run", ltm.String())
	}
}

// TestStagesAPICoversSuite cross-checks the public DAG against the facade:
// every declared stage name round-trips through RunOptions.Stages.
func TestStagesAPICoversSuite(t *testing.T) {
	stages := analysis.Stages()
	d, _ := apiSuite(t)
	for _, st := range stages {
		if st.Model {
			continue // covered by the full-suite tests; skip the slow fits
		}
		if _, err := Run(d, RunOptions{Seed: 5, Stages: []string{st.Name}}); err != nil {
			t.Errorf("stage %q not runnable alone: %v", st.Name, err)
		}
	}
}
