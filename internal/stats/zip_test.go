package stats

import (
	"fmt"
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
	// With pi → 0 nothing pins the zero intercept down: the ridge places
	// it, and the whole zero part is flagged.
	if res.Zero.AnyIdentified() {
		t.Errorf("zero part identified on non-inflated data: %+v", res.Zero)
	}
	if !math.IsNaN(res.Zero.StdErr[0]) || !math.IsNaN(res.Zero.ZValues[0]) || res.Zero.Stars(0) != "" {
		t.Errorf("unidentified intercept has se %v, z %v, stars %q", res.Zero.StdErr[0], res.Zero.ZValues[0], res.Zero.Stars(0))
	}
}

func TestZIPFlagsSeparatedCoefficient(t *testing.T) {
	// z2 is nonzero only where y > 0: a row with z2 ≠ 0 is never a
	// structural zero, so the likelihood keeps rising as its coefficient
	// runs to −∞. The ridge places it; the intercept and z1 stay
	// identified.
	src := rng.New(239)
	countX, y, zeroX := simulateZIP(src, 3000, []float64{1.0, 0.4}, []float64{-0.3, 0.7, 0})
	for i := range y {
		zeroX.Set(i, 2, 0)
		if y[i] > 0 && src.Bool(0.5) {
			zeroX.Set(i, 2, 1+src.Float64())
		}
	}
	res, err := ZIPRegression(countX, y, zeroX,
		[]string{"(Intercept)", "x1"}, []string{"(Intercept)", "z1", "z2"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("fit did not converge")
	}
	if want := []bool{true, true, false}; fmt.Sprint(res.Zero.Identified) != fmt.Sprint(want) {
		t.Errorf("zero identified = %v, want %v (coef %v)", res.Zero.Identified, want, res.Zero.Coef)
	}
	for j, id := range res.Count.Identified {
		if !id || !(res.Count.StdErr[j] > 0) {
			t.Errorf("count coefficient %d: identified %v, se %v", j, id, res.Count.StdErr[j])
		}
	}
	if !(res.Zero.StdErr[1] > 0) || !math.IsNaN(res.Zero.StdErr[2]) {
		t.Errorf("zero se = %v", res.Zero.StdErr)
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

// TestZIPDerivsMatchCentralDifferences checks the analytic gradient and
// information of the Newton finish against central differences of the
// log-likelihood, at a point off the optimum on an era-model design.
func TestZIPDerivsMatchCentralDifferences(t *testing.T) {
	countX, y, zeroX := eraModelData(rng.New(44), 600)
	res, err := ZIPRegression(countX, y, zeroX, make([]string, countX.Cols), make([]string, zeroX.Cols))
	if err != nil {
		t.Fatal(err)
	}
	p, q := countX.Cols, zeroX.Cols
	k := p + q
	// Step each coordinate by a tenth of a unit of its column's root mean
	// square, alternating in sign, so that no gradient entry is zero.
	rms := make([]float64, k)
	for i := range y {
		for j, v := range countX.Row(i) {
			rms[j] += v * v / float64(len(y))
		}
		for j, v := range zeroX.Row(i) {
			rms[p+j] += v * v / float64(len(y))
		}
	}
	theta := append(append([]float64(nil), res.Count.Coef...), res.Zero.Coef...)
	for j := range rms {
		rms[j] = math.Sqrt(rms[j])
		theta[j] += math.Pow(-1, float64(j)) * 0.1 / rms[j]
	}
	zd := newZIPData(countX, y, zeroX)
	f := func(t []float64) float64 { return zd.logLik(t[:p], t[p:]) }
	lik, grad, info := zd.derivs(theta[:p], theta[p:], newDerivRows(len(zd.y)))
	sameBit(t, "log-likelihood", lik, f(theta))

	h := make([]float64, k)
	for j := range h {
		h[j] = 1e-4 / rms[j]
	}
	at := func(da, db int, sa, sb float64) float64 {
		t := append([]float64(nil), theta...)
		t[da] += sa * h[da]
		t[db] += sb * h[db]
		return f(t)
	}
	for a := 0; a < k; a++ {
		num := (at(a, a, 0.5, 0.5) - at(a, a, -0.5, -0.5)) / (2 * h[a])
		if math.Abs(num-grad[a]) > 1e-6*(math.Abs(grad[a])+rms[a]*float64(len(y))) {
			t.Errorf("gradient[%d] = %.9g, central difference %.9g", a, grad[a], num)
		}
	}
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			var num float64
			if a == b {
				num = (at(a, a, 1, 0) - 2*lik + at(a, a, -1, 0)) / (h[a] * h[a])
			} else {
				num = (at(a, b, 1, 1) - at(a, b, 1, -1) - at(a, b, -1, 1) + at(a, b, -1, -1)) / (4 * h[a] * h[b])
			}
			scale := math.Sqrt(math.Abs(info.At(a, a) * info.At(b, b)))
			if math.Abs(num+info.At(a, b)) > 1e-4*scale {
				t.Errorf("hessian[%d][%d] = %.9g, central difference %.9g", a, b, -info.At(a, b), num)
			}
		}
	}
}

// TestZIPStdErrsMatchAnalyticInformation checks, on fits whose every
// coefficient is identified, that the standard errors equal
// sqrt(diag(inv(I))) of the unridged analytic information that derivs
// computes at the optimum, bit for bit.
func TestZIPStdErrsMatchAnalyticInformation(t *testing.T) {
	for _, c := range zipTestDesigns() {
		res, err := ZIPRegression(c.countX, c.y, c.zeroX, make([]string, c.countX.Cols), make([]string, c.zeroX.Cols))
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range res.Zero.Identified {
			if !id {
				t.Fatalf("%s: zero coefficient %d not identified", c.name, j)
			}
		}
		zd := newZIPData(c.countX, c.y, c.zeroX)
		_, _, info := zd.derivs(res.Count.Coef, res.Zero.Coef, newDerivRows(len(c.y)))
		cov, err := InvertSPD(info)
		if err != nil {
			t.Fatal(err)
		}
		got := append(append([]float64(nil), res.Count.StdErr...), res.Zero.StdErr...)
		want := make([]float64, len(got))
		for j := range want {
			want[j] = math.Sqrt(cov.At(j, j))
		}
		sameBits(t, c.name+" StdErr", got, want)
	}
}
