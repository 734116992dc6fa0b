package stats

import (
	"math"
	"testing"

	"turnup/internal/rng"
)

// simulateZIP draws n observations from a ZIP model with the given true
// parameters over standard-normal covariates, returning designs and response.
func simulateZIP(src *rng.Source, n int, beta, gamma []float64) (countX *Matrix, y []float64, zeroX *Matrix) {
	pc, pz := len(beta), len(gamma)
	countX = NewMatrix(n, pc)
	zeroX = NewMatrix(n, pz)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		countX.Set(i, 0, 1)
		zeroX.Set(i, 0, 1)
		for j := 1; j < pc; j++ {
			countX.Set(i, j, src.Norm())
		}
		for j := 1; j < pz; j++ {
			zeroX.Set(i, j, src.Norm())
		}
		mu := math.Exp(Dot(countX.Row(i), beta))
		pi := 1 / (1 + math.Exp(-Dot(zeroX.Row(i), gamma)))
		if src.Bool(pi) {
			y[i] = 0
		} else {
			y[i] = float64(src.Poisson(mu))
		}
	}
	return countX, y, zeroX
}

func TestZIPRecovery(t *testing.T) {
	src := rng.New(211)
	trueBeta := []float64{1.0, 0.5}
	trueGamma := []float64{-0.5, 0.8}
	countX, y, zeroX := simulateZIP(src, 6000, trueBeta, trueGamma)
	res, err := ZIPRegression(countX, y, zeroX,
		[]string{"(Intercept)", "x1"}, []string{"(Intercept)", "z1"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("ZIP EM did not converge")
	}
	for j, want := range trueBeta {
		if math.Abs(res.Count.Coef[j]-want) > 0.08 {
			t.Errorf("count beta[%d] = %v, want %v", j, res.Count.Coef[j], want)
		}
	}
	for j, want := range trueGamma {
		if math.Abs(res.Zero.Coef[j]-want) > 0.15 {
			t.Errorf("zero gamma[%d] = %v, want %v", j, res.Zero.Coef[j], want)
		}
	}
	// Standard errors should be small but positive at this n.
	for j, se := range res.Count.StdErr {
		if se <= 0 || se > 0.2 {
			t.Errorf("count SE[%d] = %v", j, se)
		}
	}
	// Data genuinely zero-inflated: Vuong must clearly favour ZIP.
	if res.Vuong < 2 {
		t.Errorf("Vuong = %v, expected strong preference for ZIP", res.Vuong)
	}
	if res.VuongP > 0.05 {
		t.Errorf("Vuong p = %v", res.VuongP)
	}
	if res.McFadden <= 0 || res.McFadden >= 1 {
		t.Errorf("McFadden = %v", res.McFadden)
	}
}

func TestZIPPctZero(t *testing.T) {
	src := rng.New(223)
	countX, y, zeroX := simulateZIP(src, 2000, []float64{1.5}, []float64{0})
	res, err := ZIPRegression(countX, y, zeroX, []string{"(Intercept)"}, []string{"(Intercept)"})
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range y {
		if v == 0 {
			zeros++
		}
	}
	want := 100 * float64(zeros) / float64(len(y))
	if !almostEq(res.PctZero, want, 1e-9) {
		t.Errorf("PctZero = %v, want %v", res.PctZero, want)
	}
	// gamma intercept 0 → pi = 0.5; with lambda = e^1.5 ≈ 4.5, zeros ≈ 50%.
	if res.PctZero < 40 || res.PctZero > 62 {
		t.Errorf("zero share = %v%%, expected near 50%%", res.PctZero)
	}
}

func TestZIPRejectsBadInput(t *testing.T) {
	x := NewMatrix(3, 1)
	for i := 0; i < 3; i++ {
		x.Set(i, 0, 1)
	}
	if _, err := ZIPRegression(x, []float64{0, 1, -2}, x, []string{"a"}, []string{"a"}); err == nil {
		t.Error("negative response accepted")
	}
	if _, err := ZIPRegression(x, []float64{0, 1, 2.5}, x, []string{"a"}, []string{"a"}); err == nil {
		t.Error("non-integer response accepted")
	}
	if _, err := ZIPRegression(x, []float64{0, 1, 2}, x, []string{"a", "b"}, []string{"a"}); err == nil {
		t.Error("name/column mismatch accepted")
	}
}

func TestZIPOnPurePoissonData(t *testing.T) {
	// With no zero inflation, the zero model should find a very negative
	// intercept (pi → 0) and Vuong should NOT strongly favour ZIP.
	src := rng.New(227)
	const n = 4000
	countX := NewMatrix(n, 1)
	zeroX := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		countX.Set(i, 0, 1)
		zeroX.Set(i, 0, 1)
		y[i] = float64(src.Poisson(3))
	}
	res, err := ZIPRegression(countX, y, zeroX, []string{"(Intercept)"}, []string{"(Intercept)"})
	if err != nil {
		t.Fatal(err)
	}
	pi := 1 / (1 + math.Exp(-res.Zero.Coef[0]))
	if pi > 0.06 {
		t.Errorf("estimated structural-zero share = %v on pure Poisson data", pi)
	}
	if res.Vuong > 3 {
		t.Errorf("Vuong = %v strongly favours ZIP on non-inflated data", res.Vuong)
	}
}

func TestZIPLogLikConsistency(t *testing.T) {
	src := rng.New(229)
	countX, y, zeroX := simulateZIP(src, 1500, []float64{0.8, 0.3}, []float64{-0.2})
	res, err := ZIPRegression(countX, y, zeroX,
		[]string{"(Intercept)", "x1"}, []string{"(Intercept)"})
	if err != nil {
		t.Fatal(err)
	}
	manual := 0.0
	for i := range y {
		mu := math.Exp(Dot(countX.Row(i), res.Count.Coef))
		pi := 1 / (1 + math.Exp(-Dot(zeroX.Row(i), res.Zero.Coef)))
		manual += zipLogPMF(int(y[i]), pi, mu)
	}
	if !almostEq(res.LogLik, manual, 1e-9) {
		t.Errorf("LogLik = %v, manual = %v", res.LogLik, manual)
	}
	k := float64(len(res.Count.Coef) + len(res.Zero.Coef))
	if !almostEq(res.AIC, -2*res.LogLik+2*k, 1e-9) {
		t.Errorf("AIC mismatch")
	}
}

func TestZIPStars(t *testing.T) {
	src := rng.New(233)
	countX, y, zeroX := simulateZIP(src, 5000, []float64{1.2, 0.7}, []float64{-0.4})
	res, err := ZIPRegression(countX, y, zeroX,
		[]string{"(Intercept)", "x1"}, []string{"(Intercept)"})
	if err != nil {
		t.Fatal(err)
	}
	// A strong true effect at n=5000 must be flagged significant.
	if res.Count.Stars(1) != "***" {
		t.Errorf("x1 stars = %q (p=%v)", res.Count.Stars(1), res.Count.PValues[1])
	}
}
