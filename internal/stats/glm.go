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

// glm is one IRLS problem: the design, the response, optional prior
// observation weights (nil for unit weights) and the family, Poisson
// with log link or Bernoulli with logit link. A Poisson problem carries
// lg, lgammaCount(round(y_i)) per row, for its likelihood.
type glm struct {
	x          *Matrix
	y, weights []float64
	logistic   bool
	lg         []float64
}

// irlsWork is an IRLS loop's scratch: per row, the clamped linear
// predictor and the mean at the current iterate, the mean at the
// previous iterate, and the working weight and response; and the normal
// equations of its steps. A ZIP fit reuses one per model part across all
// its M-steps.
type irlsWork struct {
	eta, mu, prevMu []float64
	w, z            []float64
	normalEqs
}

func newIRLSWork(n, p int) *irlsWork {
	return &irlsWork{
		eta: make([]float64, n), mu: make([]float64, n), prevMu: make([]float64, n),
		w: make([]float64, n), z: make([]float64, n),
		normalEqs: newNormalEqs(p),
	}
}

// normalEqs is the scratch of an IRLS step's weighted least-squares
// solve for p coefficients: the Gram matrix XᵀWX, the right-hand side
// XᵀWz and the solver's own scratch.
type normalEqs struct {
	gram *Matrix
	rhs  []float64
	spd  *spdWork
}

func newNormalEqs(p int) normalEqs {
	return normalEqs{gram: NewMatrix(p, p), rhs: make([]float64, p), spd: newSPDWork(p)}
}

// poissonFit fits y ~ Poisson(exp(X·beta)) by IRLS with optional prior
// observation weights (nil for unit weights), starting from the log of
// the weighted mean in the intercept. X must include an intercept column
// if one is desired. Only the coefficients are estimated: the ZIP fit's
// starting point and Vuong alternative need nothing else.
func poissonFit(x *Matrix, y, weights []float64) (irlsFit, error) {
	if err := checkDesign(x, y, weights); err != nil {
		return irlsFit{}, err
	}
	beta := make([]float64, x.Cols)
	beta[0] = math.Log(weightedMean(y, weights) + 1e-9)
	g := poissonGLM(x, y, weights)
	ws := newIRLSWork(len(y), x.Cols)
	g.means(beta, ws.eta, ws.mu)
	fit, err := g.irls(beta, ws)
	if err != nil {
		return irlsFit{}, fmt.Errorf("stats: Poisson IRLS step failed: %w", err)
	}
	return fit, nil
}

// poissonGLM is the Poisson problem of y on x, with lgamma(round(y)+1)
// tabulated per row.
func poissonGLM(x *Matrix, y, weights []float64) glm {
	lg := make([]float64, len(y))
	for i, v := range y {
		lg[i] = lgammaCount(int(math.Round(v)))
	}
	return glm{x: x, y: y, weights: weights, lg: lg}
}

// means fills eta and mu with every row's clamped linear predictor and
// mean under beta.
func (g *glm) means(beta, eta, mu []float64) {
	for i := range eta {
		e := clampEta(Dot(g.x.Row(i), beta))
		eta[i] = e
		if g.logistic {
			mu[i] = 1 / (1 + math.Exp(-e))
		} else {
			mu[i] = math.Exp(e)
		}
	}
}

// working fills ws.w and ws.z with every row's working weight and
// response from the linear predictors and means in ws.eta and ws.mu.
func (g *glm) working(ws *irlsWork) {
	for i, m := range ws.mu {
		wi := priorWeight(g.weights, i)
		eta := ws.eta[i]
		if g.logistic {
			v := m * (1 - m)
			if v < 1e-10 {
				v = 1e-10
			}
			ws.w[i] = wi * v
			ws.z[i] = eta + (g.y[i]-m)/v
			continue
		}
		ws.w[i] = wi * m
		if m > 0 {
			ws.z[i] = eta + (g.y[i]-m)/m
		} else {
			ws.z[i] = eta
		}
	}
}

// logLik is the stop test's likelihood, wi·log P(y_i) summed in row
// order over the rows with a positive prior weight, from the rows' means
// mu. A term's 0·log factor is left out: it is ±0, and adding ±0 to a
// finite term changes no bit. For a Poisson count k = 0 the term is
// then −mu, since lgamma(1) = 0. The Bernoulli mean is kept within
// [1e-12, 1−1e-12].
func (g *glm) logLik(mu []float64) float64 {
	lik := 0.0
	for i, m := range mu {
		wi := priorWeight(g.weights, i)
		if !(wi > 0) {
			continue
		}
		y := g.y[i]
		t := -m
		if g.logistic {
			const eps = 1e-12
			if m < eps {
				m = eps
			}
			if m > 1-eps {
				m = 1 - eps
			}
			switch y {
			case 0:
				t = math.Log(1 - m)
			case 1:
				t = math.Log(m)
			default:
				t = y*math.Log(m) + (1-y)*math.Log(1-m)
			}
		} else if k := math.Round(y); k != 0 {
			t = k*math.Log(m) - m - g.lg[i]
		}
		lik += wi * t
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
// from the starting coefficients beta, in the scratch ws. On entry
// ws.eta and ws.mu must hold the linear predictors and means at beta:
// the ZIP E-step has computed them already for its M-steps.
//
// The loop stops when both the coefficient step and the likelihood change
// are small. The likelihood is evaluated only once the step test holds,
// for the current and the previous iterate, from the means the loop
// computed for them: ws.mu and ws.prevMu swap each iteration. It is
// remembered for the next iteration, so the stop decisions, and so the
// iterations and coefficients, are exactly those of evaluating it from
// the coefficients on every iteration.
func (g *glm) irls(beta []float64, ws *irlsWork) (irlsFit, error) {
	lik, prevLik := 0.0, math.Inf(-1)
	haveLik, havePrev := false, true
	for iter := 1; iter <= glmMaxIter; iter++ {
		if iter > 1 {
			g.means(beta, ws.eta, ws.mu)
		}
		g.working(ws)
		xtwxInto(ws.gram, g.x, ws.w)
		xtwzInto(ws.rhs, g.x, ws.w, ws.z)
		next := make([]float64, len(beta))
		if err := solveSPDInto(next, ws.gram, ws.rhs, ws.spd); err != nil {
			return irlsFit{}, err
		}
		delta := 0.0
		for j := range beta {
			delta += math.Abs(next[j] - beta[j])
		}
		if delta < 1e-7 {
			if !haveLik {
				lik, haveLik = g.logLik(ws.mu), true
			}
			if !havePrev {
				prevLik, havePrev = g.logLik(ws.prevMu), true
			}
			if math.Abs(lik-prevLik) < glmTol*(math.Abs(lik)+1) {
				return irlsFit{coef: next, iters: iter, converged: true}, nil
			}
		}
		prevLik, havePrev = lik, haveLik
		beta, haveLik = next, false
		ws.mu, ws.prevMu = ws.prevMu, ws.mu
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
