package turnup

import (
	"math"
	"testing"

	"turnup/internal/analysis"
	"turnup/internal/dataset"
	"turnup/internal/forum"
)

// TestEndToEndDeterminism verifies the full pipeline — generation plus
// every analysis, including the stochastic models — is reproducible from
// the seeds alone.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (*Dataset, *Results) {
		d, err := Generate(Config{Seed: 77, Scale: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d, RunOptions{Seed: 77, LatentClassK: 6})
		if err != nil {
			t.Fatal(err)
		}
		return d, res
	}
	d1, r1 := run()
	d2, r2 := run()
	if len(d1.Contracts) != len(d2.Contracts) {
		t.Fatalf("contract counts differ: %d vs %d", len(d1.Contracts), len(d2.Contracts))
	}
	if r1.Values.TotalUSD != r2.Values.TotalUSD {
		t.Errorf("value totals differ: %v vs %v", r1.Values.TotalUSD, r2.Values.TotalUSD)
	}
	if r1.LTM.Fit.LogLik != r2.LTM.Fit.LogLik {
		t.Errorf("LCA log-likelihoods differ: %v vs %v", r1.LTM.Fit.LogLik, r2.LTM.Fit.LogLik)
	}
	if r1.ColdStart.OutlierCount != r2.ColdStart.OutlierCount {
		t.Errorf("cold-start outliers differ: %d vs %d", r1.ColdStart.OutlierCount, r2.ColdStart.OutlierCount)
	}
	for i := range r1.ZIPAll {
		if r1.ZIPAll[i].Model.LogLik != r2.ZIPAll[i].Model.LogLik {
			t.Errorf("ZIP %v log-likelihoods differ", r1.ZIPAll[i].Era)
		}
	}
	// The rendered output is byte-identical.
	if RenderAll(r1) != RenderAll(r2) {
		t.Error("rendered outputs differ between identical runs")
	}
}

// TestScaleLinearity verifies corpus sizes track the Scale knob.
func TestScaleLinearity(t *testing.T) {
	small, err := Generate(Config{Seed: 9, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(Config{Seed: 9, Scale: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(big.Contracts)) / float64(len(small.Contracts))
	if math.Abs(ratio-3) > 0.15 {
		t.Errorf("contract ratio = %.2f, want ~3", ratio)
	}
	uRatio := float64(len(big.Users)) / float64(len(small.Users))
	if math.Abs(uRatio-3) > 0.4 {
		t.Errorf("user ratio = %.2f, want ~3", uRatio)
	}
}

// TestEraConsistencyAcrossAnalyses cross-checks that independent analyses
// agree on shared quantities: taxonomy completions vs growth series vs
// dataset filters.
func TestEraConsistencyAcrossAnalyses(t *testing.T) {
	d, res := apiSuite(t)
	// Growth created series sums to the contract count.
	totalCreated := 0
	for _, n := range res.Growth.Created {
		totalCreated += n
	}
	if totalCreated != len(d.Contracts) {
		t.Errorf("growth created %d vs contracts %d", totalCreated, len(d.Contracts))
	}
	// Taxonomy complete bucket equals the Index's completed subset.
	ix := analysis.NewIndex(d)
	taxComplete := res.Taxonomy.BucketTotal(0) // BucketComplete
	if taxComplete != len(ix.Completed()) {
		t.Errorf("taxonomy complete %d vs filter %d", taxComplete, len(ix.Completed()))
	}
	// Visibility totals equal taxonomy totals.
	visTotal := 0
	for _, row := range res.Visibility.Rows {
		if !row.Completed {
			visTotal += row.Total()
		}
	}
	if visTotal != res.Taxonomy.Total {
		t.Errorf("visibility total %d vs taxonomy %d", visTotal, res.Taxonomy.Total)
	}
	// Era partitions cover all contracts exactly once.
	eraSum := 0
	for _, e := range []int{0, 1, 2} {
		eraSum += len(ix.InEra(dataset.Era(e)))
	}
	if eraSum != len(d.Contracts) {
		t.Errorf("era partition covers %d of %d", eraSum, len(d.Contracts))
	}
	// Per-type monthly value series only contains the types with values.
	for typ := range res.ValueTrend.ByType {
		if typ == forum.VouchCopy {
			t.Error("VOUCH COPY present in value trend")
		}
	}
}
