package analysis

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"turnup/internal/obs"
	"turnup/internal/rng"
)

// TestStageDAGIsValid pins the declared DAG's structural invariants: 29
// stages, unique names, every dep declared, declaration order topological
// (so Stages() is a valid schedule), and no cycles.
func TestStageDAGIsValid(t *testing.T) {
	stages := Stages()
	if len(stages) != 29 {
		t.Fatalf("Stages() = %d entries, want 29", len(stages))
	}
	pos := map[string]int{}
	for i, st := range stages {
		if _, dup := pos[st.Name]; dup {
			t.Fatalf("duplicate stage %q", st.Name)
		}
		pos[st.Name] = i
	}
	for i, st := range stages {
		for _, dep := range st.Deps {
			j, ok := pos[dep]
			if !ok {
				t.Errorf("stage %q dep %q undeclared", st.Name, dep)
				continue
			}
			if j >= i {
				t.Errorf("stage %q (pos %d) depends on %q (pos %d): order not topological", st.Name, i, dep, j)
			}
		}
	}
	// Kahn's algorithm must consume every stage — a cycle would leave some.
	indeg := map[string]int{}
	dependents := map[string][]string{}
	for _, st := range stages {
		indeg[st.Name] += 0
		for _, dep := range st.Deps {
			indeg[st.Name]++
			dependents[dep] = append(dependents[dep], st.Name)
		}
	}
	var queue []string
	for _, st := range stages {
		if indeg[st.Name] == 0 {
			queue = append(queue, st.Name)
		}
	}
	seen := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		seen++
		for _, d := range dependents[n] {
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen != len(stages) {
		t.Errorf("topological sort consumed %d of %d stages: cycle in DAG", seen, len(stages))
	}
	// The declared cross-stage reads.
	if !reflect.DeepEqual(stages[pos["ValueTrend"]].Deps, []string{"Values"}) {
		t.Errorf("ValueTrend deps = %v", stages[pos["ValueTrend"]].Deps)
	}
	if !reflect.DeepEqual(stages[pos["Flows"]].Deps, []string{"LatentClasses"}) {
		t.Errorf("Flows deps = %v", stages[pos["Flows"]].Deps)
	}
}

// TestSelectStages pins subset resolution: transitive closure over deps,
// table-order output, unknown-name and model-with-SkipModels errors.
func TestSelectStages(t *testing.T) {
	names := func(sel []int) []string {
		out := make([]string, len(sel))
		for i, idx := range sel {
			out[i] = stageTable[idx].name
		}
		return out
	}

	sel, err := selectStages([]string{"ValueTrend"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(sel); !reflect.DeepEqual(got, []string{"Values", "ValueTrend"}) {
		t.Errorf("ValueTrend closure = %v", got)
	}

	sel, err = selectStages([]string{"Flows", "Taxonomy"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(sel); !reflect.DeepEqual(got, []string{"Taxonomy", "LatentClasses", "Flows"}) {
		t.Errorf("Flows+Taxonomy closure = %v", got)
	}

	if _, err := selectStages([]string{"NoSuchStage"}, false); err == nil ||
		!strings.Contains(err.Error(), "unknown stage") {
		t.Errorf("unknown stage error = %v", err)
	}
	if _, err := selectStages([]string{"Flows"}, true); err == nil ||
		!strings.Contains(err.Error(), "SkipModels") {
		t.Errorf("model-with-SkipModels error = %v", err)
	}

	all, err := selectStages(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(stageTable) {
		t.Errorf("nil request selected %d of %d stages", len(all), len(stageTable))
	}
	descr, err := selectStages(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(descr) != len(stageTable)-5 {
		t.Errorf("SkipModels selected %d stages, want %d", len(descr), len(stageTable)-5)
	}
}

// TestSchedulerStageSubset runs a real corpus through a stage subset and
// checks exactly the closure ran: requested slots filled, others zero.
func TestSchedulerStageSubset(t *testing.T) {
	d := smallCorpus(t)
	res, err := RunSuiteCtx(context.Background(), d,
		SuiteOptions{Stages: []string{"ValueTrend"}, Workers: 4}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values.TotalUSD <= 0 {
		t.Error("Values dep not run for ValueTrend subset")
	}
	if len(res.ValueTrend.ByType) == 0 {
		t.Error("ValueTrend not computed")
	}
	if res.Taxonomy.Total != 0 {
		t.Error("Taxonomy ran although not requested")
	}
	if res.LTM != nil {
		t.Error("model stages ran although not requested")
	}
}

// TestSchedulerDeterministicAcrossWorkers runs the full suite (models
// included, so both forked RNG streams are exercised) at several worker
// counts and requires identical results.
func TestSchedulerDeterministicAcrossWorkers(t *testing.T) {
	d := smallCorpus(t)
	run := func(workers int) *Suite {
		t.Helper()
		res, err := RunSuiteCtx(context.Background(), d,
			SuiteOptions{LatentClassK: 6, Workers: workers}, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(w)
		if got.Values.TotalUSD != base.Values.TotalUSD {
			t.Errorf("Workers=%d: Values.TotalUSD %v != %v", w, got.Values.TotalUSD, base.Values.TotalUSD)
		}
		if got.LTM.Fit.LogLik != base.LTM.Fit.LogLik {
			t.Errorf("Workers=%d: LTM log-lik %v != %v", w, got.LTM.Fit.LogLik, base.LTM.Fit.LogLik)
		}
		if got.ColdStart.OutlierCount != base.ColdStart.OutlierCount {
			t.Errorf("Workers=%d: cold-start outliers %d != %d", w, got.ColdStart.OutlierCount, base.ColdStart.OutlierCount)
		}
		if !reflect.DeepEqual(got.Flows, base.Flows) {
			t.Errorf("Workers=%d: flows diverged", w)
		}
	}
}

// TestSchedulerCancellation: a cancelled context aborts before any stage
// runs, and cancellation mid-run surfaces context.Canceled after draining.
func TestSchedulerCancellation(t *testing.T) {
	d := smallCorpus(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSuiteCtx(ctx, d, SuiteOptions{SkipModels: true}, rng.New(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	opts := SuiteOptions{
		SkipModels: true,
		Workers:    2,
		Progress:   func(string) { cancel() }, // cancel as soon as the first stage starts
	}
	if _, err := RunSuiteCtx(ctx, d, opts, rng.New(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancel: err = %v, want context.Canceled", err)
	}
}

// TestSchedulerObservability pins the obs contract under parallelism: one
// span per stage under analysis/RunSuite carrying a worker attr, the
// stage histogram/counter, and the in-flight gauge back at zero.
func TestSchedulerObservability(t *testing.T) {
	d := smallCorpus(t)
	tr := obs.NewTracer("sched")
	reg := obs.NewRegistry()
	var stages []string
	_, err := RunSuiteCtx(context.Background(), d, SuiteOptions{
		SkipModels: true,
		Workers:    4,
		Trace:      tr,
		Metrics:    reg,
		Progress:   func(s string) { stages = append(stages, s) },
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()
	descriptive := len(stageTable) - 5
	if len(stages) != descriptive {
		t.Errorf("progress callback fired %d times, want %d", len(stages), descriptive)
	}
	byPath := map[string]obs.Record{}
	for _, rec := range obs.Flatten(root) {
		byPath[rec.Path] = rec
	}
	for _, st := range stageTable {
		if st.model {
			continue
		}
		rec, ok := byPath["sched/analysis/RunSuite/analysis/"+st.name]
		if !ok {
			t.Errorf("missing span for stage %s", st.name)
			continue
		}
		if _, ok := rec.Attrs["worker"]; !ok {
			t.Errorf("stage %s span missing worker attr", st.name)
		}
	}
	if got := reg.Counter("analysis_stages_total").Value(); got != int64(descriptive) {
		t.Errorf("analysis_stages_total = %d, want %d", got, descriptive)
	}
	if got := reg.Histogram("analysis_stage_seconds").Count(); got != descriptive {
		t.Errorf("analysis_stage_seconds count = %d, want %d", got, descriptive)
	}
	if got := reg.Gauge("analysis_stages_inflight").Value(); got != 0 {
		t.Errorf("analysis_stages_inflight = %v after run, want 0", got)
	}
}
