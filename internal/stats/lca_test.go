package stats

import (
	"math"
	"testing"

	"turnup/internal/rng"
)

// mixtureData simulates an independent-Poisson mixture with the given class
// weights and rate matrix.
func mixtureData(src *rng.Source, n int, weights []float64, rates [][]float64) ([][]float64, []int) {
	data := make([][]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := src.Categorical(weights)
		labels[i] = c
		row := make([]float64, len(rates[c]))
		for j, lam := range rates[c] {
			row[j] = float64(src.Poisson(lam))
		}
		data[i] = row
	}
	return data, labels
}

func TestLCARecoversRates(t *testing.T) {
	src := rng.New(401)
	weights := []float64{0.6, 0.4}
	rates := [][]float64{{1, 8}, {10, 0.5}}
	data, _ := mixtureData(src, 4000, weights, rates)
	var best *LCAResult
	for r := 0; r < 5; r++ {
		fit, err := FitLCA(data, 2, src.Fork(uint64(r)))
		if err != nil {
			t.Fatal(err)
		}
		if best == nil || fit.LogLik > best.LogLik {
			best = fit
		}
	}
	// Match fitted classes to true classes by first-dimension rate.
	lo, hi := 0, 1
	if best.Rates[0][0] > best.Rates[1][0] {
		lo, hi = 1, 0
	}
	if math.Abs(best.Rates[lo][0]-1) > 0.3 || math.Abs(best.Rates[lo][1]-8) > 0.5 {
		t.Errorf("class-lo rates = %v, want ~[1 8]", best.Rates[lo])
	}
	if math.Abs(best.Rates[hi][0]-10) > 0.5 || math.Abs(best.Rates[hi][1]-0.5) > 0.3 {
		t.Errorf("class-hi rates = %v, want ~[10 0.5]", best.Rates[hi])
	}
	if math.Abs(best.Weights[lo]-0.6) > 0.05 {
		t.Errorf("class-lo weight = %v, want ~0.6", best.Weights[lo])
	}
}

func TestLCAPosteriorRowsSumToOne(t *testing.T) {
	src := rng.New(409)
	data, _ := mixtureData(src, 500, []float64{0.5, 0.5}, [][]float64{{2, 2}, {9, 1}})
	fit, err := FitLCA(data, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range fit.Posterior {
		s := 0.0
		for _, p := range row {
			if p < -1e-12 || p > 1+1e-12 {
				t.Fatalf("posterior out of range at %d: %v", i, p)
			}
			s += p
		}
		if !almostEq(s, 1, 1e-9) {
			t.Fatalf("posterior row %d sums to %v", i, s)
		}
	}
}

func TestLCAWeightsSumToOne(t *testing.T) {
	src := rng.New(419)
	data, _ := mixtureData(src, 800, []float64{0.3, 0.3, 0.4},
		[][]float64{{1, 1}, {6, 1}, {1, 9}})
	fit, err := FitLCA(data, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(Sum(fit.Weights), 1, 1e-9) {
		t.Errorf("weights sum to %v", Sum(fit.Weights))
	}
}

func TestLCAErrors(t *testing.T) {
	src := rng.New(421)
	if _, err := FitLCA(nil, 2, src); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitLCA([][]float64{{1}, {2}}, 5, src); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := FitLCA([][]float64{{1, 2}, {-1, 0}}, 1, src); err == nil {
		t.Error("negative counts accepted")
	}
	if _, err := FitLCA([][]float64{{1}, {2, 3}}, 1, src); err == nil {
		t.Error("ragged data accepted")
	}
	if _, err := FitLCA([][]float64{{1}, {math.NaN()}}, 1, src); err == nil {
		t.Error("NaN count accepted")
	}
	if _, err := FitLCA([][]float64{{1}, {math.Inf(1)}}, 1, src); err == nil {
		t.Error("infinite count accepted")
	}
}

// The class-count sweep is the DESIGN.md §6 model-selection ablation:
// TestSelectLCAPrefersTrueK checks that BIC recovers the true class
// count and BenchmarkAblationLCASelection times it. Nothing outside the
// tests calls it.

// SelectLCA sweeps the class count over [kMin, kMax] with nRestarts EM runs
// per k (best log-likelihood kept), returning the fit minimising BIC and
// all per-k fits. The paper selects 12 classes by AIC/BIC parsimony.
func SelectLCA(data [][]float64, kMin, kMax, nRestarts int, src *rng.Source) (best *LCAResult, fits map[int]*LCAResult, err error) {
	if kMin < 1 {
		kMin = 1
	}
	if nRestarts < 1 {
		nRestarts = 1
	}
	fits = make(map[int]*LCAResult)
	for k := kMin; k <= kMax; k++ {
		var bestK *LCAResult
		for r := 0; r < nRestarts; r++ {
			fit, ferr := FitLCA(data, k, src.Fork(uint64(k*1000+r)))
			if ferr != nil {
				return nil, nil, ferr
			}
			if bestK == nil || fit.LogLik > bestK.LogLik {
				bestK = fit
			}
		}
		fits[k] = bestK
		if best == nil || bestK.BIC < best.BIC {
			best = bestK
		}
	}
	return best, fits, nil
}

func TestSelectLCAPrefersTrueK(t *testing.T) {
	src := rng.New(431)
	// Three very distinct classes; BIC should not pick fewer than 3 and has
	// no reason to pick many more.
	data, _ := mixtureData(src, 2500, []float64{0.4, 0.3, 0.3},
		[][]float64{{0.5, 0.5}, {10, 0.5}, {0.5, 12}})
	best, fits, err := SelectLCA(data, 1, 5, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	if best.K < 3 || best.K > 4 {
		t.Errorf("BIC selected k = %d, want 3 (or occasionally 4)", best.K)
	}
	// Log-likelihood must be non-decreasing in k for nested mixtures.
	for k := 2; k <= 5; k++ {
		if fits[k].LogLik < fits[k-1].LogLik-25 {
			t.Errorf("loglik dropped substantially from k=%d (%v) to k=%d (%v)",
				k-1, fits[k-1].LogLik, k, fits[k].LogLik)
		}
	}
}

// BenchmarkAblationLCASelection times the class-count selection sweep
// (the paper's "12-class model is most parsimonious" step) at bench
// scale.
func BenchmarkAblationLCASelection(b *testing.B) {
	src := rng.New(79)
	data := make([][]float64, 1200)
	rates := [][]float64{{0.5, 4}, {6, 0.3}, {2, 2}}
	for i := range data {
		c := src.Intn(3)
		data[i] = []float64{float64(src.Poisson(rates[c][0])), float64(src.Poisson(rates[c][1]))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, _, err := SelectLCA(data, 1, 5, 2, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if best.K < 2 {
			b.Fatalf("selected k=%d", best.K)
		}
	}
}

func TestLCAClassify(t *testing.T) {
	src := rng.New(433)
	data, _ := mixtureData(src, 2000, []float64{0.5, 0.5}, [][]float64{{1, 10}, {10, 1}})
	// Two extreme observations ride along; their MAP classes must be the
	// matching components.
	data = append(data, []float64{15, 0}, []float64{0, 15})
	fit, err := FitLCA(data, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	cHi := fit.Assignment[len(data)-2]
	cLo := fit.Assignment[len(data)-1]
	if cHi == cLo {
		t.Error("the assignment cannot distinguish extreme observations")
	}
	if fit.Rates[cHi][0] < fit.Rates[cLo][0] {
		t.Error("an extreme observation was assigned to the wrong component")
	}
}

func TestTransitionMatrix(t *testing.T) {
	seqs := [][]int{
		{0, 0, 1, 1},
		{0, 1, 1, 0},
		{0, -1, 1}, // gap: 0→1 must NOT be counted without bridging
	}
	m := TransitionMatrix(seqs, 2, false)
	// Transitions: u1: 0→0, 0→1, 1→1; u2: 0→1, 1→1, 1→0. u3 contributes none.
	// From 0: {0→0:1, 0→1:2} → [1/3, 2/3]. From 1: {1→1:2, 1→0:1} → [1/3, 2/3].
	if !almostEq(m[0][0], 1.0/3, 1e-9) || !almostEq(m[0][1], 2.0/3, 1e-9) {
		t.Errorf("row 0 = %v", m[0])
	}
	if !almostEq(m[1][0], 1.0/3, 1e-9) || !almostEq(m[1][1], 2.0/3, 1e-9) {
		t.Errorf("row 1 = %v", m[1])
	}

	bridged := TransitionMatrix(seqs, 2, true)
	// With bridging, u3 adds one extra 0→1.
	if bridged[0][1] <= m[0][1] {
		t.Errorf("bridging did not add the gap transition: %v vs %v", bridged[0][1], m[0][1])
	}

	// Rows of any transition matrix sum to 1 (or 0 for unseen classes).
	for i, row := range m {
		s := Sum(row)
		if !almostEq(s, 1, 1e-9) && s != 0 {
			t.Errorf("row %d sums to %v", i, s)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	if v := logSumExp([]float64{0, 0}); !almostEq(v, math.Log(2), 1e-12) {
		t.Errorf("logSumExp = %v", v)
	}
	// Extreme values must not overflow.
	if v := logSumExp([]float64{-1000, -1001}); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("logSumExp overflowed: %v", v)
	}
	if v := logSumExp([]float64{math.Inf(-1), math.Inf(-1)}); !math.IsInf(v, -1) {
		t.Errorf("all -inf should stay -inf, got %v", v)
	}
}
