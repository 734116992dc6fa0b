package stats

import (
	"math"
	"sort"
	"testing"

	"turnup/internal/rng"
)

// drawPowerLaw samples exactly from a bounded discrete power law
// P(x) ∝ x^-alpha on {xmin, ..., xmin+support-1} by inverting the
// cumulative Zipf weights over ranks {0..support-1}, P(k) ∝ (k+1)^-alpha.
// The truncation at a large support leaves negligible tail mass for
// alpha > 1.5.
func drawPowerLaw(src *rng.Source, n int, alpha float64, xmin int) []int {
	const support = 200000
	cum := make([]float64, support)
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(k+1), -alpha)
		cum[k] = total
	}
	out := make([]int, n)
	for i := range out {
		// Shift the 0-based rank so the smallest value is exactly xmin.
		out[i] = sort.SearchFloat64s(cum, src.Float64()*total) + xmin
	}
	return out
}

func TestFitPowerLawRecovery(t *testing.T) {
	src := rng.New(501)
	for _, alpha := range []float64{1.8, 2.5, 3.2} {
		xs := drawPowerLaw(src, 20000, alpha, 1)
		fit, err := FitPowerLaw(xs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Alpha-alpha) > 0.1 {
			t.Errorf("alpha = %v, want %v", fit.Alpha, alpha)
		}
		if fit.NTail != len(xs) {
			t.Errorf("NTail = %d", fit.NTail)
		}
		if fit.KS > 0.05 {
			t.Errorf("KS = %v on true power-law data", fit.KS)
		}
	}
}

// TestFitPowerLawIgnoresOrder requires permutations of one degree slice
// to fit bit-identically: a network's DegreeSlice ranges over a map, so
// its order changes from build to build.
func TestFitPowerLawIgnoresOrder(t *testing.T) {
	src := rng.New(503)
	xs := drawPowerLaw(src, 3000, 2.1, 1)
	want, err := FitPowerLaw(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		src.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got, err := FitPowerLaw(xs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
			math.Float64bits(got.KS) != math.Float64bits(want.KS) || got.NTail != want.NTail {
			t.Fatalf("round %d: permuted fit %+v, first fit %+v", round, got, want)
		}
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]int{1, 2, 3}, 0); err == nil {
		t.Error("xmin=0 accepted")
	}
	if _, err := FitPowerLaw([]int{1, 1, 1}, 5); err == nil {
		t.Error("empty tail accepted")
	}
}

func TestPowerLawKSDetectsNonPowerLaw(t *testing.T) {
	src := rng.New(509)
	// Poisson data is NOT power-law; KS should be clearly worse than on
	// genuine power-law data.
	var pois []int
	for i := 0; i < 5000; i++ {
		pois = append(pois, 1+src.Poisson(10))
	}
	fitP, err := FitPowerLaw(pois, 1)
	if err != nil {
		t.Fatal(err)
	}
	genuine := drawPowerLaw(src, 5000, 2.3, 1)
	fitG, err := FitPowerLaw(genuine, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fitP.KS < fitG.KS*2 {
		t.Errorf("Poisson KS %v not clearly worse than power-law KS %v", fitP.KS, fitG.KS)
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram([]int{1, 1, 2, 5, 5, 5})
	if h[1] != 2 || h[2] != 1 || h[5] != 3 {
		t.Errorf("histogram = %v", h)
	}
	if len(DegreeHistogram(nil)) != 0 {
		t.Error("empty histogram not empty")
	}
}
