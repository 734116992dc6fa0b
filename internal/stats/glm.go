package stats

import (
	"errors"
	"fmt"
	"math"
)

const (
	glmMaxIter = 100
	glmTol     = 1e-9
	// Caps on the linear predictor keep exp() finite on wild starting
	// points without affecting converged fits on real data.
	etaCap = 30.0
)

func clampEta(eta float64) float64 {
	if eta > etaCap {
		return etaCap
	}
	if eta < -etaCap {
		return -etaCap
	}
	return eta
}

// poissonFit fits y ~ Poisson(exp(X·beta)) by IRLS with optional prior
// observation weights (nil for unit weights). X must include an
// intercept column if one is desired. Only the coefficients are
// estimated: the ZIP EM's M-step and starting point need nothing else.
// IRLS starts from start, or from the log of the weighted mean in the
// intercept when start is nil.
func poissonFit(x *Matrix, y, weights, start []float64) (irlsFit, error) {
	if err := checkDesign(x, y, weights); err != nil {
		return irlsFit{}, err
	}
	beta := start
	if beta == nil {
		beta = make([]float64, x.Cols)
		beta[0] = math.Log(weightedMean(y, weights) + 1e-9)
	}
	work := func(beta, w, z []float64) {
		for i := range w {
			wi := priorWeight(weights, i)
			eta := clampEta(Dot(x.Row(i), beta))
			mu := math.Exp(eta)
			w[i] = wi * mu
			if mu > 0 {
				z[i] = eta + (y[i]-mu)/mu
			} else {
				z[i] = eta
			}
		}
	}
	lik := func(beta []float64) float64 { return poissonLogLik(x, y, weights, beta) }
	fit, err := irls(x, beta, work, lik)
	if err != nil {
		return irlsFit{}, fmt.Errorf("stats: Poisson IRLS step failed: %w", err)
	}
	return fit, nil
}

// poissonLogLik sums wi·log P(y_i | beta) over the rows with a positive
// prior weight (the IRLS stop test's convention).
func poissonLogLik(x *Matrix, y, weights []float64, beta []float64) float64 {
	lik := 0.0
	for i := 0; i < x.Rows; i++ {
		wi := priorWeight(weights, i)
		if !(wi > 0) {
			continue
		}
		mu := math.Exp(clampEta(Dot(x.Row(i), beta)))
		lik += wi * PoissonLogPMF(int(math.Round(y[i])), mu)
	}
	return lik
}

// logisticFit fits y ~ Bernoulli(logistic(X·beta)) by Newton's method.
// The response may be fractional (values in [0,1]) — the ZIP M-step
// relies on this — in which case the "likelihood" is the usual
// quasi-likelihood with fractional successes. weights may be nil. Newton
// starts from start, or from zero when start is nil.
func logisticFit(x *Matrix, y, weights, start []float64) (irlsFit, error) {
	if err := checkDesign(x, y, weights); err != nil {
		return irlsFit{}, err
	}
	for _, v := range y {
		if v < 0 || v > 1 {
			return irlsFit{}, errors.New("stats: logistic response outside [0,1]")
		}
	}
	work := func(beta, w, z []float64) {
		for i := range w {
			wi := priorWeight(weights, i)
			eta := clampEta(Dot(x.Row(i), beta))
			mu := 1 / (1 + math.Exp(-eta))
			v := mu * (1 - mu)
			if v < 1e-10 {
				v = 1e-10
			}
			w[i] = wi * v
			z[i] = eta + (y[i]-mu)/v
		}
	}
	if start == nil {
		start = make([]float64, x.Cols)
	}
	lik := func(beta []float64) float64 { return logisticLogLik(x, y, weights, beta) }
	fit, err := irls(x, start, work, lik)
	if err != nil {
		return irlsFit{}, fmt.Errorf("stats: logistic Newton step failed: %w", err)
	}
	return fit, nil
}

func bernoulliLogLik(y, mu float64) float64 {
	const eps = 1e-12
	if mu < eps {
		mu = eps
	}
	if mu > 1-eps {
		mu = 1 - eps
	}
	return y*math.Log(mu) + (1-y)*math.Log(1-mu)
}

// logisticLogLik is poissonLogLik's Bernoulli counterpart.
func logisticLogLik(x *Matrix, y, weights []float64, beta []float64) float64 {
	lik := 0.0
	for i := 0; i < x.Rows; i++ {
		wi := priorWeight(weights, i)
		if !(wi > 0) {
			continue
		}
		mu := 1 / (1 + math.Exp(-clampEta(Dot(x.Row(i), beta))))
		lik += wi * bernoulliLogLik(y[i], mu)
	}
	return lik
}

// irlsFit is the outcome of the shared IRLS loop: the coefficients, the
// iterations used and whether the stop test was met.
type irlsFit struct {
	coef      []float64
	iters     int
	converged bool
}

// irls runs the Newton/IRLS loop shared by the Poisson and logistic fits
// from the starting coefficients beta. work fills every row's working
// weight and response at the current coefficients; loglik is the
// quasi-likelihood the stop test compares between consecutive iterates.
//
// The loop stops when both the coefficient step and the likelihood change
// are small. The likelihood is a pure function of the coefficients, so it
// is evaluated only once the step test holds, for the current and the
// previous iterate, and remembered for the next iteration: the stop
// decisions, and so the iterations and coefficients, are exactly those of
// evaluating it on every iteration.
func irls(x *Matrix, beta []float64, work func(beta, w, z []float64), loglik func(beta []float64) float64) (irlsFit, error) {
	n := x.Rows
	w := make([]float64, n) // IRLS working weights
	z := make([]float64, n) // working response
	var prevBeta []float64
	lik, prevLik := 0.0, math.Inf(-1)
	haveLik, havePrev := false, true
	for iter := 1; iter <= glmMaxIter; iter++ {
		work(beta, w, z)
		next, err := SolveSPD(XtWX(x, w), XtWz(x, w, z))
		if err != nil {
			return irlsFit{}, err
		}
		delta := 0.0
		for j := range beta {
			delta += math.Abs(next[j] - beta[j])
		}
		if delta < 1e-7 {
			if !haveLik {
				lik, haveLik = loglik(beta), true
			}
			if !havePrev {
				prevLik, havePrev = loglik(prevBeta), true
			}
			if math.Abs(lik-prevLik) < glmTol*(math.Abs(lik)+1) {
				return irlsFit{coef: next, iters: iter, converged: true}, nil
			}
		}
		prevBeta, prevLik, havePrev = beta, lik, haveLik
		beta, haveLik = next, false
	}
	return irlsFit{coef: beta, iters: glmMaxIter}, nil
}

func checkDesign(x *Matrix, y, weights []float64) error {
	if x.Rows != len(y) {
		return fmt.Errorf("stats: design has %d rows but response has %d", x.Rows, len(y))
	}
	if weights != nil && len(weights) != len(y) {
		return fmt.Errorf("stats: %d weights for %d observations", len(weights), len(y))
	}
	if x.Rows == 0 {
		return errors.New("stats: empty design matrix")
	}
	if x.Cols == 0 {
		return errors.New("stats: design matrix has no columns")
	}
	if x.Rows < x.Cols {
		return fmt.Errorf("stats: under-determined design (%d rows, %d cols)", x.Rows, x.Cols)
	}
	return nil
}

func priorWeight(weights []float64, i int) float64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

func weightedMean(y, weights []float64) float64 {
	var sw, sy float64
	for i, v := range y {
		w := priorWeight(weights, i)
		sw += w
		sy += w * v
	}
	if sw == 0 {
		return 0
	}
	return sy / sw
}
