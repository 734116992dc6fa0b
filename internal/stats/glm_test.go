package stats

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"turnup/internal/rng"
)

// logisticFit fits y ~ Bernoulli(logistic(X·beta)) by Newton's method
// from zero, on the IRLS loop that runs the ZIP EM's zero-part M-steps.
// The response may be fractional (values in [0,1]) — the M-step relies
// on this — in which case the "likelihood" is the usual quasi-likelihood
// with fractional successes.
func logisticFit(x *Matrix, y []float64) (irlsFit, error) {
	if err := checkDesign(x, y, nil); err != nil {
		return irlsFit{}, err
	}
	for _, v := range y {
		if v < 0 || v > 1 {
			return irlsFit{}, errors.New("stats: logistic response outside [0,1]")
		}
	}
	g := glm{x: x, y: y, logistic: true}
	beta, ws := make([]float64, x.Cols), newIRLSWork(len(y), x.Cols)
	g.means(beta, ws.eta, ws.mu)
	fit, err := g.irls(beta, ws)
	if err != nil {
		return irlsFit{}, fmt.Errorf("stats: logistic Newton step failed: %w", err)
	}
	return fit, nil
}

// buildDesign assembles a design matrix with an intercept column followed by
// the provided covariate columns.
func buildDesign(cols ...[]float64) *Matrix {
	n := len(cols[0])
	m := NewMatrix(n, len(cols)+1)
	for i := 0; i < n; i++ {
		m.Set(i, 0, 1)
		for j, c := range cols {
			m.Set(i, j+1, c[i])
		}
	}
	return m
}

func TestPoissonRegressionRecovery(t *testing.T) {
	src := rng.New(101)
	const n = 5000
	trueBeta := []float64{0.5, 0.8, -0.4}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = src.Norm()
		x2[i] = src.Norm()
		mu := math.Exp(trueBeta[0] + trueBeta[1]*x1[i] + trueBeta[2]*x2[i])
		y[i] = float64(src.Poisson(mu))
	}
	res, err := poissonFit(buildDesign(x1, x2), y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.converged {
		t.Error("IRLS did not converge")
	}
	for j, want := range trueBeta {
		if math.Abs(res.coef[j]-want) > 0.06 {
			t.Errorf("beta[%d] = %v, want %v", j, res.coef[j], want)
		}
	}
}

func TestPoissonRegressionInterceptOnly(t *testing.T) {
	// Intercept-only fit must recover log(mean).
	y := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	x := NewMatrix(len(y), 1)
	for i := range y {
		x.Set(i, 0, 1)
	}
	res, err := poissonFit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.coef[0], math.Log(3.5), 1e-6) {
		t.Errorf("intercept = %v, want log(3.5)=%v", res.coef[0], math.Log(3.5))
	}
}

func TestPoissonRegressionWeights(t *testing.T) {
	// Zero-weight observations must not influence the fit.
	y := []float64{1, 2, 3, 1000}
	x := NewMatrix(4, 1)
	for i := 0; i < 4; i++ {
		x.Set(i, 0, 1)
	}
	w := []float64{1, 1, 1, 0}
	res, err := poissonFit(x, y, w)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.coef[0], math.Log(2), 1e-6) {
		t.Errorf("weighted intercept = %v, want log(2)", res.coef[0])
	}
}

func TestPoissonRegressionErrors(t *testing.T) {
	x := NewMatrix(2, 1)
	if _, err := poissonFit(x, []float64{1}, nil); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := poissonFit(NewMatrix(0, 0), nil, nil); err == nil {
		t.Error("empty design accepted")
	}
	if _, err := poissonFit(x, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("weight length mismatch accepted")
	}
	under := NewMatrix(1, 3)
	if _, err := poissonFit(under, []float64{1}, nil); err == nil {
		t.Error("under-determined design accepted")
	}
}

func TestLogisticRegressionRecovery(t *testing.T) {
	src := rng.New(103)
	const n = 8000
	trueBeta := []float64{-0.5, 1.2}
	x1 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = src.Norm()
		p := 1 / (1 + math.Exp(-(trueBeta[0] + trueBeta[1]*x1[i])))
		if src.Bool(p) {
			y[i] = 1
		}
	}
	res, err := logisticFit(buildDesign(x1), y)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range trueBeta {
		if math.Abs(res.coef[j]-want) > 0.1 {
			t.Errorf("beta[%d] = %v, want %v", j, res.coef[j], want)
		}
	}
}

func TestLogisticFractionalResponse(t *testing.T) {
	// Fractional responses (the ZIP M-step case): intercept-only fit must
	// return logit of the mean.
	y := []float64{0.2, 0.4, 0.6, 0.8}
	x := NewMatrix(4, 1)
	for i := range y {
		x.Set(i, 0, 1)
	}
	res, err := logisticFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.coef[0], 0, 1e-6) { // logit(0.5) = 0
		t.Errorf("fractional intercept = %v", res.coef[0])
	}
}

func TestLogisticRejectsOutOfRange(t *testing.T) {
	x := NewMatrix(2, 1)
	x.Set(0, 0, 1)
	x.Set(1, 0, 1)
	if _, err := logisticFit(x, []float64{0, 1.5}); err == nil {
		t.Error("response > 1 accepted")
	}
}

func TestLogisticSeparationSurvives(t *testing.T) {
	// Perfectly separated data: coefficients diverge in theory; the clamped
	// eta and ridge fallback must keep the fit finite and errorless.
	x1 := []float64{-2, -1, 1, 2}
	y := []float64{0, 0, 1, 1}
	res, err := logisticFit(buildDesign(x1), y)
	if err != nil {
		t.Fatalf("separation broke the fit: %v", err)
	}
	for _, c := range res.coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("non-finite coefficient %v", c)
		}
	}
}

// TestGLMLogLikMatchesManual checks the IRLS stop test's likelihood,
// summed from stored means, against a manual sum and, bit for bit,
// against the reference that recomputes every mean from the
// coefficients. Zero prior weights, zero counts, and responses of
// exactly 0 and 1 take the branches that leave out a 0·log term.
func TestGLMLogLikMatchesManual(t *testing.T) {
	y := []float64{0, 1, 2}
	x := NewMatrix(3, 1)
	for i := range y {
		x.Set(i, 0, 1)
	}
	res, err := poissonFit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	mu := math.Exp(res.coef[0])
	want := 0.0
	for _, yi := range y {
		want += PoissonLogPMF(int(yi), mu)
	}
	g := poissonGLM(x, y, nil)
	ws := newIRLSWork(len(y), x.Cols)
	g.means(res.coef, ws.eta, ws.mu)
	if got := g.logLik(ws.mu); !almostEq(got, want, 1e-9) {
		t.Errorf("LogLik = %v, want %v", got, want)
	}

	src := rng.New(107)
	x = randomDesign(src, 400, 4)
	beta := []float64{0.2, -0.5, 0.3, 40}
	counts, frac, w := make([]float64, x.Rows), make([]float64, x.Rows), make([]float64, x.Rows)
	for i := range counts {
		counts[i] = float64(src.Poisson(2))
		switch {
		case i%4 == 0:
			frac[i] = 0
		case i%4 == 1:
			frac[i] = 1
		default:
			frac[i] = src.Float64()
		}
		if i%5 != 0 {
			w[i] = src.Float64()
		}
	}
	ws = newIRLSWork(x.Rows, x.Cols)
	for _, weights := range [][]float64{nil, w} {
		pg := poissonGLM(x, counts, weights)
		pg.means(beta, ws.eta, ws.mu)
		sameBit(t, "Poisson logLik", pg.logLik(ws.mu), refPoissonLogLik(x, counts, weights, beta))
		lg := glm{x: x, y: frac, weights: weights, logistic: true}
		lg.means(beta, ws.eta, ws.mu)
		sameBit(t, "logistic logLik", lg.logLik(ws.mu), refLogisticLogLik(x, frac, weights, beta))
	}
}
