package stats

// Reference implementations of the model kernels as they stood before the
// table-driven rewrite: every loop recomputes its logs, lgammas and
// likelihoods in place. The bit-exactness tests in kernels_test.go run
// these beside the production kernels on the same inputs and require
// Float64bits-equal results, so any change to the production kernels
// that alters one rounding step fails there. The ZIP EM here is the one
// exception: it is the cold-start EM that ran before the Newton finish,
// and TestZIPMatchesColdEMReference requires the finished fits to reach
// the same optimum from it, to 1e-6.

import (
	"errors"
	"fmt"
	"math"

	"turnup/internal/rng"
)

func refPoissonLogPMF(k int, lambda float64) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if lambda <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return float64(k)*math.Log(lambda) - lambda - lg
}

func refZIPLogPMF(k int, pi, lambda float64) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if k == 0 {
		return math.Log(pi + (1-pi)*math.Exp(-lambda))
	}
	return math.Log1p(-pi) + refPoissonLogPMF(k, lambda)
}

func refXtWX(x *Matrix, w []float64) *Matrix {
	p := x.Cols
	out := NewMatrix(p, p)
	for i := 0; i < x.Rows; i++ {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		if wi == 0 {
			continue
		}
		row := x.Row(i)
		for a := 0; a < p; a++ {
			ra := wi * row[a]
			if ra == 0 {
				continue
			}
			for b := a; b < p; b++ {
				out.Data[a*p+b] += ra * row[b]
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := 0; b < a; b++ {
			out.Data[a*p+b] = out.Data[b*p+a]
		}
	}
	return out
}

func refXtWz(x *Matrix, w, z []float64) []float64 {
	p := x.Cols
	out := make([]float64, p)
	for i := 0; i < x.Rows; i++ {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		wz := wi * z[i]
		if wz == 0 {
			continue
		}
		row := x.Row(i)
		for a := 0; a < p; a++ {
			out[a] += row[a] * wz
		}
	}
	return out
}

func refFitLCA(data [][]float64, k int, src *rng.Source) (*LCAResult, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("stats: LCA on empty data")
	}
	d := len(data[0])
	if k <= 0 || k > n {
		return nil, fmt.Errorf("stats: LCA k=%d with n=%d", k, n)
	}

	res := &LCAResult{K: k, D: d, N: n}
	global := make([]float64, d)
	for _, row := range data {
		for j, v := range row {
			global[j] += v
		}
	}
	for j := range global {
		global[j] /= float64(n)
	}
	rates := make([][]float64, k)
	for c := range rates {
		anchor := data[src.Intn(n)]
		rates[c] = make([]float64, d)
		for j := range rates[c] {
			rates[c][j] = math.Max(0.7*anchor[j]+0.3*global[j]+0.05*src.Float64(), lcaRateEps)
		}
	}
	weights := make([]float64, k)
	for c := range weights {
		weights[c] = 1 / float64(k)
	}

	post := make([][]float64, n)
	for i := range post {
		post[i] = make([]float64, k)
	}
	logp := make([]float64, k)
	prev := math.Inf(-1)
	for iter := 1; iter <= lcaMaxIter; iter++ {
		res.Iters = iter
		lik := 0.0
		for i, row := range data {
			for c := 0; c < k; c++ {
				lp := math.Log(weights[c])
				for j, v := range row {
					lp += refPoissonLogPMF(int(v), rates[c][j])
				}
				logp[c] = lp
			}
			lse := logSumExp(logp)
			lik += lse
			for c := 0; c < k; c++ {
				post[i][c] = math.Exp(logp[c] - lse)
			}
		}
		if math.Abs(lik-prev) < lcaTol*(math.Abs(lik)+1) {
			res.Converged = true
			res.LogLik = lik
			break
		}
		prev = lik
		res.LogLik = lik

		for c := 0; c < k; c++ {
			wc := 0.0
			for i := range data {
				wc += post[i][c]
			}
			weights[c] = wc / float64(n)
			for j := 0; j < d; j++ {
				num := 0.0
				for i, row := range data {
					num += post[i][c] * row[j]
				}
				if wc > 0 {
					rates[c][j] = math.Max(num/wc, lcaRateEps)
				}
			}
		}
	}

	res.Weights = weights
	res.Rates = rates
	res.Posterior = post
	res.Assignment = make([]int, n)
	for i := range post {
		best, bestP := 0, post[i][0]
		for c := 1; c < k; c++ {
			if post[i][c] > bestP {
				best, bestP = c, post[i][c]
			}
		}
		res.Assignment[i] = best
	}
	params := float64(k - 1 + k*d)
	res.AIC = -2*res.LogLik + 2*params
	res.BIC = -2*res.LogLik + params*math.Log(float64(n))
	return res, nil
}

// refPoissonRegression is the IRLS loop before the lazy stop test and
// the 4-row Gram kernel: the likelihood is summed on every iteration.
func refPoissonRegression(x *Matrix, y, weights []float64) (irlsFit, error) {
	if err := checkDesign(x, y, weights); err != nil {
		return irlsFit{}, err
	}
	n, p := x.Rows, x.Cols
	beta := make([]float64, p)
	beta[0] = math.Log(weightedMean(y, weights) + 1e-9)

	w := make([]float64, n)
	z := make([]float64, n)
	prevLik := math.Inf(-1)
	res := irlsFit{}
	for iter := 1; iter <= glmMaxIter; iter++ {
		res.iters = iter
		lik := 0.0
		for i := 0; i < n; i++ {
			wi := priorWeight(weights, i)
			eta := clampEta(Dot(x.Row(i), beta))
			mu := math.Exp(eta)
			w[i] = wi * mu
			if mu > 0 {
				z[i] = eta + (y[i]-mu)/mu
			} else {
				z[i] = eta
			}
			if wi > 0 {
				lik += wi * refPoissonLogPMF(int(math.Round(y[i])), mu)
			}
		}
		gram := refXtWX(x, w)
		rhs := refXtWz(x, w, z)
		next, err := SolveSPD(gram, rhs)
		if err != nil {
			return irlsFit{}, fmt.Errorf("stats: Poisson IRLS step failed: %w", err)
		}
		delta := 0.0
		for j := range beta {
			delta += math.Abs(next[j] - beta[j])
		}
		beta = next
		if math.Abs(lik-prevLik) < glmTol*(math.Abs(lik)+1) && delta < 1e-7 {
			res.converged = true
			break
		}
		prevLik = lik
	}
	res.coef = beta
	return res, nil
}

// refLogisticRegression is refPoissonRegression's Bernoulli counterpart.
func refLogisticRegression(x *Matrix, y, weights []float64) (irlsFit, error) {
	if err := checkDesign(x, y, weights); err != nil {
		return irlsFit{}, err
	}
	for _, v := range y {
		if v < 0 || v > 1 {
			return irlsFit{}, errors.New("stats: logistic response outside [0,1]")
		}
	}
	n, p := x.Rows, x.Cols
	beta := make([]float64, p)
	w := make([]float64, n)
	z := make([]float64, n)
	prevLik := math.Inf(-1)
	res := irlsFit{}
	for iter := 1; iter <= glmMaxIter; iter++ {
		res.iters = iter
		lik := 0.0
		for i := 0; i < n; i++ {
			wi := priorWeight(weights, i)
			eta := clampEta(Dot(x.Row(i), beta))
			mu := 1 / (1 + math.Exp(-eta))
			v := mu * (1 - mu)
			if v < 1e-10 {
				v = 1e-10
			}
			w[i] = wi * v
			z[i] = eta + (y[i]-mu)/v
			if wi > 0 {
				lik += wi * refBernoulliLogLik(y[i], mu)
			}
		}
		gram := refXtWX(x, w)
		rhs := refXtWz(x, w, z)
		next, err := SolveSPD(gram, rhs)
		if err != nil {
			return irlsFit{}, fmt.Errorf("stats: logistic Newton step failed: %w", err)
		}
		delta := 0.0
		for j := range beta {
			delta += math.Abs(next[j] - beta[j])
		}
		beta = next
		if math.Abs(lik-prevLik) < glmTol*(math.Abs(lik)+1) && delta < 1e-7 {
			res.converged = true
			break
		}
		prevLik = lik
	}
	res.coef = beta
	return res, nil
}

// refZIPTol is the EM's stop test before the Newton finish: a relative
// log-likelihood change below 3e-8.
const refZIPTol = 3e-8

// refZIPEM is the ZIP EM before the Newton finish: both M-step fits
// restart cold on every iteration and the loop runs to refZIPTol.
func refZIPEM(countX *Matrix, y []float64, zeroX *Matrix) (beta, gamma []float64, lik float64, iters int, converged bool, err error) {
	n := len(y)
	pois, err := refPoissonRegression(countX, y, nil)
	if err != nil {
		return nil, nil, 0, 0, false, err
	}
	beta = append([]float64(nil), pois.coef...)
	gamma = make([]float64, zeroX.Cols)
	zeroShare := 0.0
	for _, v := range y {
		if v == 0 {
			zeroShare++
		}
	}
	zeroShare /= float64(n)
	gamma[0] = math.Log((zeroShare + 0.05) / (1 - zeroShare + 0.05))

	r := make([]float64, n)
	wCount := make([]float64, n)
	prev := math.Inf(-1)
	for iter := 1; iter <= zipMaxIter; iter++ {
		iters = iter
		lik = 0
		for i := 0; i < n; i++ {
			mu := math.Exp(clampEta(Dot(countX.Row(i), beta)))
			pi := 1 / (1 + math.Exp(-clampEta(Dot(zeroX.Row(i), gamma))))
			if y[i] == 0 {
				pz := pi + (1-pi)*math.Exp(-mu)
				if pz < 1e-300 {
					pz = 1e-300
				}
				r[i] = pi / pz
				lik += math.Log(pz)
			} else {
				r[i] = 0
				lik += math.Log1p(-pi) + refPoissonLogPMF(int(y[i]), mu)
			}
			wCount[i] = 1 - r[i]
		}
		if math.Abs(lik-prev) < refZIPTol*(math.Abs(lik)+1) {
			converged = true
			break
		}
		prev = lik
		pfit, perr := refPoissonRegression(countX, y, wCount)
		if perr != nil {
			return nil, nil, 0, iters, false, perr
		}
		beta = pfit.coef
		lfit, lerr := refLogisticRegression(zeroX, r, nil)
		if lerr != nil {
			return nil, nil, 0, iters, false, lerr
		}
		gamma = lfit.coef
	}
	lik = refZIPLogLik(countX, y, zeroX, beta, gamma)
	return beta, gamma, lik, iters, converged, nil
}

func refZIPLogLik(countX *Matrix, y []float64, zeroX *Matrix, beta, gamma []float64) float64 {
	lik := 0.0
	for i := range y {
		mu := math.Exp(clampEta(Dot(countX.Row(i), beta)))
		pi := 1 / (1 + math.Exp(-clampEta(Dot(zeroX.Row(i), gamma))))
		lik += refZIPLogPMF(int(y[i]), pi, mu)
	}
	return lik
}

// refZIPStdErrs returns sqrt(diag(inv(−H))) of a central-difference
// Hessian of the log-likelihood at (beta, gamma), each coefficient
// stepped by 1e-4·(|θ|+0.01): the standard errors ZIPRegression reported
// before it took them from the analytic information.
func refZIPStdErrs(countX *Matrix, y []float64, zeroX *Matrix, beta, gamma []float64) ([]float64, error) {
	p, q := len(beta), len(gamma)
	k := p + q
	theta := make([]float64, k)
	copy(theta, beta)
	copy(theta[p:], gamma)
	f := func(t []float64) float64 {
		return refZIPLogLik(countX, y, zeroX, t[:p], t[p:])
	}
	h := NewMatrix(k, k)
	step := make([]float64, k)
	for j := 0; j < k; j++ {
		step[j] = 1e-4 * (math.Abs(theta[j]) + 1e-2)
	}
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			t := make([]float64, k)
			eval := func(da, db float64) float64 {
				copy(t, theta)
				t[a] += da
				t[b] += db
				return f(t)
			}
			ha, hb := step[a], step[b]
			var v float64
			if a == b {
				v = (eval(ha, 0) - 2*f(theta) + eval(-ha, 0)) / (ha * ha)
			} else {
				v = (eval(ha, hb) - eval(ha, -hb) - eval(-ha, hb) + eval(-ha, -hb)) / (4 * ha * hb)
			}
			h.Set(a, b, v)
			h.Set(b, a, v)
		}
	}
	info := NewMatrix(k, k)
	for i := range info.Data {
		info.Data[i] = -h.Data[i]
	}
	cov, err := InvertSPD(info)
	if err != nil {
		return nil, err
	}
	se := make([]float64, k)
	for j := 0; j < k; j++ {
		se[j] = math.Sqrt(math.Max(cov.At(j, j), 0))
	}
	return se, nil
}

func refBernoulliLogLik(y, mu float64) float64 {
	const eps = 1e-12
	if mu < eps {
		mu = eps
	}
	if mu > 1-eps {
		mu = 1 - eps
	}
	return y*math.Log(mu) + (1-y)*math.Log(1-mu)
}

// refPoissonLogLik sums wi·log P(y_i | beta) over the rows with a
// positive prior weight, recomputing every row's mean.
func refPoissonLogLik(x *Matrix, y, weights []float64, beta []float64) float64 {
	lik := 0.0
	for i := 0; i < x.Rows; i++ {
		wi := priorWeight(weights, i)
		if !(wi > 0) {
			continue
		}
		mu := math.Exp(clampEta(Dot(x.Row(i), beta)))
		lik += wi * refPoissonLogPMF(int(math.Round(y[i])), mu)
	}
	return lik
}

// refLogisticLogLik is refPoissonLogLik's Bernoulli counterpart.
func refLogisticLogLik(x *Matrix, y, weights []float64, beta []float64) float64 {
	lik := 0.0
	for i := 0; i < x.Rows; i++ {
		wi := priorWeight(weights, i)
		if !(wi > 0) {
			continue
		}
		mu := 1 / (1 + math.Exp(-clampEta(Dot(x.Row(i), beta))))
		lik += wi * refBernoulliLogLik(y[i], mu)
	}
	return lik
}

// refIRLS is the IRLS loop whose stop test recomputes the likelihood
// from the coefficients: once the step test holds, loglik runs for the
// current and the previous iterate (each remembered for the next
// iteration).
func refIRLS(x *Matrix, beta []float64, work func(beta, w, z []float64), loglik func(beta []float64) float64) (irlsFit, error) {
	n := x.Rows
	w := make([]float64, n)
	z := make([]float64, n)
	var prevBeta []float64
	lik, prevLik := 0.0, math.Inf(-1)
	haveLik, havePrev := false, true
	for iter := 1; iter <= glmMaxIter; iter++ {
		work(beta, w, z)
		next, err := SolveSPD(refXtWX(x, w), refXtWz(x, w, z))
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

// refPoissonFit is the Poisson IRLS from start (nil: the log of the
// weighted mean) on refIRLS.
func refPoissonFit(x *Matrix, y, weights, start []float64) (irlsFit, error) {
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
	lik := func(beta []float64) float64 { return refPoissonLogLik(x, y, weights, beta) }
	return refIRLS(x, beta, work, lik)
}

// refLogisticFit is the logistic Newton fit from start (nil: zero) on
// refIRLS.
func refLogisticFit(x *Matrix, y, weights, start []float64) (irlsFit, error) {
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
	lik := func(beta []float64) float64 { return refLogisticLogLik(x, y, weights, beta) }
	return refIRLS(x, start, work, lik)
}

// refEM is where an EM stopped: the coefficients, the EM iterations,
// and the IRLS iterations of each M-step's count and zero fits.
type refEM struct {
	beta, gamma         []float64
	iters               int
	countIRLS, zeroIRLS []int
}

// refZIPWarmEM is ZIPRegression's EM with its starting Poisson fit, as
// it stood before the IRLS stop test read stored means and the M-steps
// took the E-step's means: every M-step fit starts from the previous
// coefficients and recomputes every mean it needs.
func refZIPWarmEM(countX *Matrix, y []float64, zeroX *Matrix) (refEM, error) {
	pois, err := refPoissonFit(countX, y, nil, nil)
	if err != nil {
		return refEM{}, err
	}
	out := refEM{beta: pois.coef, gamma: make([]float64, zeroX.Cols)}
	n := len(y)
	zeroShare := 0.0
	for _, v := range y {
		if v == 0 {
			zeroShare++
		}
	}
	zeroShare /= float64(n)
	out.gamma[0] = math.Log((zeroShare + 0.05) / (1 - zeroShare + 0.05))

	r := make([]float64, n)
	wCount := make([]float64, n)
	prev := math.Inf(-1)
	for iter := 1; iter <= zipMaxIter; iter++ {
		out.iters = iter
		lik := 0.0
		for i := 0; i < n; i++ {
			mu := math.Exp(clampEta(Dot(countX.Row(i), out.beta)))
			pi := 1 / (1 + math.Exp(-clampEta(Dot(zeroX.Row(i), out.gamma))))
			if y[i] == 0 {
				pz := pi + (1-pi)*math.Exp(-mu)
				if pz < 1e-300 {
					pz = 1e-300
				}
				r[i] = pi / pz
				lik += math.Log(pz)
			} else {
				r[i] = 0
				lik += math.Log1p(-pi) + refPoissonLogPMF(int(y[i]), mu)
			}
			wCount[i] = 1 - r[i]
		}
		if math.Abs(lik-prev) < zipEMTol*(math.Abs(lik)+1) {
			break
		}
		prev = lik
		pfit, err := refPoissonFit(countX, y, wCount, out.beta)
		if err != nil {
			return refEM{}, err
		}
		out.beta = pfit.coef
		out.countIRLS = append(out.countIRLS, pfit.iters)
		lfit, err := refLogisticFit(zeroX, r, nil, out.gamma)
		if err != nil {
			return refEM{}, err
		}
		out.gamma = lfit.coef
		out.zeroIRLS = append(out.zeroIRLS, lfit.iters)
	}
	return out, nil
}
