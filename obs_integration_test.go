package turnup

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"turnup/internal/analysis"
	"turnup/internal/obs"
)

// TestTracedPipelineCoversErasAndStages runs a small traced
// generate→analyse cycle and checks the span tree covers every simulated
// era and every Suite stage — the shape hfrepro -trace promises.
func TestTracedPipelineCoversErasAndStages(t *testing.T) {
	tracer := NewTracer("test")
	reg := NewRegistry()
	d, err := Generate(Config{Seed: 3, Scale: 0.02, Trace: tracer, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	if _, err := Run(d, RunOptions{
		Seed: 3, SkipModels: true, Trace: tracer, Metrics: reg,
		Progress: func(stage string) { stages = append(stages, stage) },
	}); err != nil {
		t.Fatal(err)
	}
	root := tracer.Finish()

	records := map[string]obs.Record{}
	for _, rec := range obs.Flatten(root) {
		records[rec.Path] = rec
	}
	for _, era := range []string{"SET-UP", "STABLE", "COVID-19"} {
		if _, ok := records["test/market/generate/era/"+era]; !ok {
			t.Errorf("trace missing era span %s", era)
		}
	}
	for _, stage := range analysis.Stages() {
		if stage.Model {
			continue // SkipModels run
		}
		rec, ok := records["test/analysis/RunSuite/analysis/"+stage.Name]
		if !ok {
			t.Errorf("trace missing stage span %s", stage.Name)
			continue
		}
		if _, ok := rec.Attrs["worker"]; !ok {
			t.Errorf("stage span %s missing worker attr", stage.Name)
		}
		if !contains(stages, stage.Name) {
			t.Errorf("progress callback missing stage %s", stage.Name)
		}
	}

	// Metrics recorded on both sides of the pipeline.
	if got := reg.Counter("market_contracts_total").Value(); got != int64(len(d.Contracts)) {
		t.Errorf("market_contracts_total = %d, want %d", got, len(d.Contracts))
	}
	if reg.Counter("analysis_stages_total").Value() == 0 {
		t.Error("analysis_stages_total not incremented")
	}
	if reg.Histogram("analysis_stage_seconds").Count() == 0 {
		t.Error("analysis_stage_seconds empty")
	}
	if got := reg.Gauge("analysis_stages_inflight").Value(); got != 0 {
		t.Errorf("analysis_stages_inflight = %v after the run, want 0", got)
	}

	// The JSON exporter round-trips the live tree.
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, root); err != nil {
		t.Fatal(err)
	}
	var recs []obs.Record
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(obs.Flatten(root)) {
		t.Errorf("round-trip records = %d, want %d", len(recs), len(obs.Flatten(root)))
	}
}

// TestUntracedRunUnchanged pins the zero-value path: no options set means
// no spans, no metrics, identical results to the seed behaviour.
func TestUntracedRunUnchanged(t *testing.T) {
	d, _ := apiSuite(t)
	res, err := Run(d, RunOptions{Seed: 5, SkipModels: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Taxonomy.Total != len(d.Contracts) {
		t.Errorf("taxonomy total = %d", res.Taxonomy.Total)
	}
}

// TestLoadedDatasetAuditUnverifiable pins the satellite fix: a dataset that
// carries no ledger must surface high-value contracts as Unverifiable (in
// the struct, the rendered table, and the metric) instead of silently
// reporting an audit of zeros.
func TestLoadedDatasetAuditUnverifiable(t *testing.T) {
	d, err := Generate(Config{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(d, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	res, err := Run(loaded, RunOptions{Seed: 7, SkipModels: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	audit := res.Values.Audit
	if audit.HighValue == 0 {
		t.Skip("no high-value contracts at this scale/seed")
	}
	if audit.Unverifiable != audit.HighValue {
		t.Errorf("Unverifiable = %d, want all %d high-value contracts", audit.Unverifiable, audit.HighValue)
	}
	if audit.Confirmed != 0 || audit.Revised != 0 || audit.Unclear != 0 {
		t.Errorf("ledger-less audit reported confirmed/revised/unclear = %d/%d/%d",
			audit.Confirmed, audit.Revised, audit.Unclear)
	}
	if got := reg.Counter("audit_unverifiable_total").Value(); got != int64(audit.Unverifiable) {
		t.Errorf("audit_unverifiable_total = %d, want %d", got, audit.Unverifiable)
	}
	if out := RenderAll(res); !strings.Contains(out, "unverifiable") {
		t.Error("rendered tables do not mention the unverifiable count")
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
