// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see the per-experiment index in DESIGN.md), plus the design
// ablations of DESIGN.md §6 and the simulator itself.
//
// Each benchmark regenerates its artefact against a shared simulated corpus
// (scale 0.05 so `go test -bench=. ./...` stays tractable); use cmd/hfrepro
// at scale 1.0 for a paper-sized run.
package turnup

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"turnup/internal/analysis"
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/market"
	"turnup/internal/obs"
	"turnup/internal/rng"
	"turnup/internal/stats"
	"turnup/internal/textmine"
)

var (
	benchOnce sync.Once
	benchData *Dataset
	benchLTM  *analysis.LTMResult
)

func benchCorpus(b *testing.B) *Dataset {
	b.Helper()
	benchOnce.Do(func() {
		d, _, err := market.Generate(market.Config{Seed: 99, Scale: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		benchData = d
	})
	return benchData
}

func benchLTMFit(b *testing.B) (*Dataset, *analysis.LTMResult) {
	b.Helper()
	d := benchCorpus(b)
	if benchLTM == nil {
		ltm, err := analysis.LatentClasses(d, analysis.LTMOptions{K: 8, Restarts: 1}, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		benchLTM = ltm
	}
	return d, benchLTM
}

// BenchmarkGenerate measures the simulator (the dataset substitution).
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := market.Generate(market.Config{Seed: uint64(i) + 1, Scale: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Tables ----

func BenchmarkTable1Taxonomy(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Taxonomy(d)
		if r.Total == 0 {
			b.Fatal("empty taxonomy")
		}
	}
}

func BenchmarkTable2Visibility(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Visibility(d)
		if len(r.Rows) == 0 {
			b.Fatal("empty visibility")
		}
	}
}

func BenchmarkTable3Activities(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Activities(analysis.NewIndex(d))
		if len(r.Rows) == 0 {
			b.Fatal("no activities")
		}
	}
}

func BenchmarkTable4Payments(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.PaymentMethods(analysis.NewIndex(d))
		if len(r.Rows) == 0 {
			b.Fatal("no methods")
		}
	}
}

func BenchmarkTable5Values(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Values(analysis.NewIndex(d))
		if r.TotalUSD <= 0 {
			b.Fatal("no value")
		}
	}
}

func BenchmarkTable6LatentClasses(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.LatentClasses(d,
			analysis.LTMOptions{K: 8, Restarts: 1}, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7ColdStartClusters(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.ColdStart(analysis.NewIndex(d), rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8Flows(b *testing.B) {
	d, ltm := benchLTMFit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := analysis.Flows(d, ltm)
		if len(f.Flows) == 0 {
			b.Fatal("no flows")
		}
	}
}

func BenchmarkTable9ZIPAll(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.ZIPAllUsers(analysis.NewIndex(d)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable10ZIPSub(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.ZIPSubgroups(analysis.NewIndex(d)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures ----

func BenchmarkFigure1MonthlyGrowth(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := analysis.Growth(analysis.NewIndex(d))
		if g.Created[9] == 0 {
			b.Fatal("empty growth")
		}
	}
}

func BenchmarkFigure2VisibilityTrend(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.PublicTrend(analysis.NewIndex(d))
	}
}

func BenchmarkFigure3TypeShares(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.TypeShareTrend(analysis.NewIndex(d))
	}
}

func BenchmarkFigure4CompletionTime(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.CompletionTimeTrend(d)
	}
}

func BenchmarkFigure5Concentration(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Concentrate(analysis.NewIndex(d))
	}
}

func BenchmarkFigure6KeyShare(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.KeyShares(analysis.NewIndex(d))
	}
}

func BenchmarkFigure7DegreeDist(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.DegreeDist(d.Contracts)
		if r.Nodes == 0 {
			b.Fatal("empty network")
		}
	}
}

func BenchmarkFigure8DegreeGrowth(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.DegreeGrowthTrend(analysis.NewIndex(d), false)
	}
}

func BenchmarkFigure9ProductTrend(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ProductTrends(analysis.NewIndex(d))
	}
}

func BenchmarkFigure10PaymentTrend(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.PaymentTrends(analysis.NewIndex(d))
	}
}

func BenchmarkFigure11ValueTrend(b *testing.B) {
	d := benchCorpus(b)
	report := analysis.Values(analysis.NewIndex(d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ValueTrends(analysis.NewIndex(d), report)
	}
}

// BenchmarkFigure12ClassMade and BenchmarkFigure13ClassAccepted measure
// summing each class's per-era activity out of the series a fitted LTM
// carries (SALE contracts in the STABLE era).
func benchClassSeries(b *testing.B, series [][dataset.NumMonths][forum.NumContractTypes]int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for c := range series {
			for _, m := range dataset.EraStable.Months() {
				total += series[c][m][forum.Sale]
			}
		}
		if total == 0 {
			b.Fatal("empty class series")
		}
	}
}

func BenchmarkFigure12ClassMade(b *testing.B) {
	_, ltm := benchLTMFit(b)
	benchClassSeries(b, ltm.MadeSeries)
}

func BenchmarkFigure13ClassAccepted(b *testing.B) {
	_, ltm := benchLTMFit(b)
	benchClassSeries(b, ltm.AcceptedSeries)
}

// BenchmarkFigure14StateMachine drives a contract through its full legal
// lifecycle (the Figure 14 process).
func BenchmarkFigure14StateMachine(b *testing.B) {
	t0 := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		c, err := forum.NewContract(forum.ContractID(i+1), forum.Exchange, 1, 2, t0, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Accept(t0.Add(time.Hour)); err != nil {
			b.Fatal(err)
		}
		if err := c.MarkComplete(forum.MakerParty, t0.Add(2*time.Hour)); err != nil {
			b.Fatal(err)
		}
		if err := c.MarkComplete(forum.TakerParty, t0.Add(3*time.Hour)); err != nil {
			b.Fatal(err)
		}
		if err := c.Rate(forum.MakerParty, forum.RatingPositive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHighValueAudit isolates the §4.5 ledger verification.
func BenchmarkHighValueAudit(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Values(analysis.NewIndex(d))
		if r.Audit.HighValue == 0 {
			b.Skip("no high-value contracts at bench scale")
		}
	}
}

// ---- Observability overhead (internal/obs) ----
//
// The zero-cost-when-disabled contract: BenchmarkSuiteDescriptive (nil
// tracer — the default every caller gets) must match the pre-obs baseline
// within noise, while BenchmarkSuiteDescriptiveTraced shows the cost of
// full span + metrics capture.

func benchRunSuite(b *testing.B, opts analysis.SuiteOptions) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.RunSuiteCtx(context.Background(), d, opts, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteDescriptive(b *testing.B) {
	benchRunSuite(b, analysis.SuiteOptions{SkipModels: true})
}

func BenchmarkSuiteDescriptiveTraced(b *testing.B) {
	benchRunSuite(b, analysis.SuiteOptions{
		SkipModels: true,
		Trace:      obs.NewTracer("bench"),
		Metrics:    obs.NewRegistry(),
	})
}

// ---- Parallel scheduler (sequential vs worker-pool suite) ----
//
// The same full suite (models included, K=6) over a Scale-0.1 corpus,
// first pinned to one worker and then with the default pool. On a multi-core machine the WorkersMax run should be measurably
// faster; on one core the two coincide within noise. Note that
// BenchmarkSuiteDescriptive above already exercises the parallel default
// (Workers unset → GOMAXPROCS); BenchmarkSuiteDescriptiveSequential is
// its Workers=1 counterpart at bench scale.

func BenchmarkSuiteDescriptiveSequential(b *testing.B) {
	benchRunSuite(b, analysis.SuiteOptions{SkipModels: true, Workers: 1})
}

var (
	parallelOnce sync.Once
	parallelData *Dataset
)

func parallelCorpus(b *testing.B) *Dataset {
	b.Helper()
	parallelOnce.Do(func() {
		d, _, err := market.Generate(market.Config{Seed: 99, Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		parallelData = d
	})
	return parallelData
}

func benchSuiteWorkers(b *testing.B, workers int) {
	d := parallelCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.RunSuiteCtx(context.Background(), d, analysis.SuiteOptions{
			LatentClassK: 6, Workers: workers,
		}, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteScale10Workers1(b *testing.B) { benchSuiteWorkers(b, 1) }

func BenchmarkSuiteScale10WorkersMax(b *testing.B) {
	benchSuiteWorkers(b, runtime.GOMAXPROCS(0))
}

// ---- Analysis index (shared groupings + memoized categorisation) ----
//
// The per-stage re-parse cost the index removed. The cold one-pass build
// a suite run pays once is BenchmarkIndexObligationBuild in
// internal/analysis, which can call the table build directly.

// BenchmarkCategoriseCorpusDirect re-parses every completed public
// contract's two obligation texts — what each of the five
// categoriser-bound stages used to do per run.
func BenchmarkCategoriseCorpusDirect(b *testing.B) {
	d := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range d.Contracts {
			if !c.Public || !c.IsComplete() {
				continue
			}
			textmine.Categorize(c.MakerObligation)
			textmine.Categorize(c.TakerObligation)
		}
	}
}

// ---- Columnar dataset format (dataset.bin vs the CSV pair) ----
//
// The load cost of the binary format LoadDir prefers against re-parsing
// the canonical CSV pair it replaced on the hot path.

func benchSavedCorpus(b *testing.B) string {
	b.Helper()
	d := benchCorpus(b)
	dir := b.TempDir()
	if err := Save(d, dir); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkDatasetBinaryLoad measures decoding dataset.bin — the store's
// replication payload and LoadDir's preferred path.
func BenchmarkDatasetBinaryLoad(b *testing.B) {
	dir := benchSavedCorpus(b)
	raw, err := os.ReadFile(filepath.Join(dir, "dataset.bin"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Contracts) == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkDatasetCSVLoad measures parsing the same corpus from its CSV
// pair — the fallback (and upload) path the binary format bypasses.
func BenchmarkDatasetCSVLoad(b *testing.B) {
	dir := benchSavedCorpus(b)
	contracts, err := os.ReadFile(filepath.Join(dir, "contracts.csv"))
	if err != nil {
		b.Fatal(err)
	}
	users, err := os.ReadFile(filepath.Join(dir, "users.csv"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ReadCSV(bytes.NewReader(contracts), bytes.NewReader(users))
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Contracts) == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// ---- Ablations (DESIGN.md §6) ----
//
// The solver ablation (EM vs gradient ZIP) lives in internal/stats and the
// categoriser ablation in internal/textmine, beside the reference code
// each compares against.

// k-means++ vs uniform seeding on the cold-start-like feature space.
func ablationKMeansData(b *testing.B) [][]float64 {
	b.Helper()
	src := rng.New(78)
	data := make([][]float64, 1500)
	for i := range data {
		row := make([]float64, 7)
		scale := 1.0
		if src.Bool(0.03) {
			scale = 30 // outlier users
		}
		for j := range row {
			row[j] = scale * src.Exp(1)
		}
		data[i] = row
	}
	return data
}

func BenchmarkAblationKMeansPlusPlus(b *testing.B) {
	data := ablationKMeansData(b)
	opts := stats.NewKMeansOptions()
	opts.Restarts = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.KMeans(data, 8, opts, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKMeansRandomSeed(b *testing.B) {
	data := ablationKMeansData(b)
	opts := stats.NewKMeansOptions()
	opts.Restarts = 2
	opts.PlusPlus = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.KMeans(data, 8, opts, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
