package stats

import (
	"fmt"
	"math"

	"turnup/internal/rng"
)

// LCAResult is a fitted latent class model for multivariate count data:
// a mixture of K classes, each emitting D independent Poisson counts.
// This is the modelling engine behind the paper's Latent Transition Model
// (§5.1): each user-month is an observation, the D dimensions are the
// make/take counts per contract type, and the classes are the 12 behaviour
// types of Table 6.
type LCAResult struct {
	K, D       int
	Weights    []float64   // class mixing proportions, length K
	Rates      [][]float64 // K × D Poisson rates (the Table 6 matrix)
	LogLik     float64
	AIC, BIC   float64
	N          int
	Iters      int
	Converged  bool
	Posterior  [][]float64 // N × K responsibilities
	Assignment []int       // MAP class per observation
}

const (
	lcaMaxIter = 300
	lcaTol     = 1e-7
	lcaRateEps = 1e-6 // floor on rates: keeps log-PMFs finite for zero-rate cells
)

// FitLCA fits a K-class independent-Poisson mixture to data (N × D counts)
// by EM with random-responsibility initialisation.
func FitLCA(data [][]float64, k int, src *rng.Source) (*LCAResult, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("stats: LCA on empty data")
	}
	d := len(data[0])
	if d == 0 {
		return nil, fmt.Errorf("stats: LCA with zero dimensions")
	}
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("stats: ragged LCA data at row %d", i)
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("stats: negative count at (%d,%d)", i, j)
			}
			if !(v < 1<<63) {
				return nil, fmt.Errorf("stats: count %g at (%d,%d) out of range", v, i, j)
			}
		}
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("stats: LCA k=%d with n=%d", k, n)
	}

	res := &LCAResult{K: k, D: d, N: n}
	// Initialise rates from randomly perturbed k-means-ish seeds: pick k
	// random rows as rate anchors, blended with the global mean.
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

	// The E-step term of cell (i, j) under class c is PoissonLogPMF(count,
	// rate), i.e. count·log(rate) − rate − lgamma(count+1): counts are
	// validated non-negative and rates never fall below lcaRateEps, so its
	// other branches never apply. The lgamma part is fixed for the fit and
	// log(rate) for an iteration, so they are tabulated (N×D once, K×D per
	// iteration) and the term is evaluated from the tables with the same
	// operations.
	lgs := make([]float64, n*d)
	for i, row := range data {
		for j, v := range row {
			lgs[i*d+j] = lgammaCount(int(v))
		}
	}
	logW := make([]float64, k)
	logRates := make([]float64, k*d)
	// Sufficient statistics of the M-step, accumulated during the E-step
	// in row order: wc[c] = Σ_i post[i][c], num[c·d+j] = Σ_i post[i][c]·x_ij.
	wc := make([]float64, k)
	num := make([]float64, k*d)

	post := make([][]float64, n)
	postData := make([]float64, n*k)
	for i := range post {
		post[i] = postData[i*k : (i+1)*k : (i+1)*k]
	}
	logp := make([]float64, k)
	prev := math.Inf(-1)
	for iter := 1; iter <= lcaMaxIter; iter++ {
		res.Iters = iter
		for c, rc := range rates {
			logW[c] = math.Log(weights[c])
			lr := logRates[c*d : (c+1)*d]
			for j, r := range rc {
				lr[j] = math.Log(r)
			}
		}
		clear(wc)
		clear(num)
		// E-step in log space.
		lik := 0.0
		for i, row := range data {
			// Reslicing every operand to len(row) lets the compiler drop
			// the bounds checks of the innermost loop.
			row = row[:d]
			lg := lgs[i*d : (i+1)*d][:len(row)]
			for c, rc := range rates {
				lp := logW[c]
				lr := logRates[c*d : (c+1)*d][:len(row)]
				rc = rc[:len(row)]
				for j, v := range row {
					lp += float64(int(v))*lr[j] - rc[j] - lg[j]
				}
				logp[c] = lp
			}
			lse := logSumExp(logp)
			lik += lse
			pi := post[i]
			for c := range pi {
				pc := math.Exp(logp[c] - lse)
				pi[c] = pc
				wc[c] += pc
				nc := num[c*d : (c+1)*d]
				for j, v := range row {
					nc[j] += pc * v
				}
			}
		}
		if math.Abs(lik-prev) < lcaTol*(math.Abs(lik)+1) {
			res.Converged = true
			res.LogLik = lik
			break
		}
		prev = lik
		res.LogLik = lik

		// M-step.
		for c, rc := range rates {
			weights[c] = wc[c] / float64(n)
			if wc[c] > 0 {
				for j := range rc {
					rc[j] = math.Max(num[c*d+j]/wc[c], lcaRateEps)
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

func logSumExp(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	s := 0.0
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

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

// TransitionMatrix estimates a latent transition matrix from per-period
// class assignments: entry (a, b) is P(class b at t+1 | class a at t),
// estimated from all consecutive-period pairs in the sequences. Each
// sequence is one entity's ordered class assignments; negative class values
// mark periods where the entity is absent and are skipped (no transition is
// counted across a gap unless bridgeGaps is true).
func TransitionMatrix(sequences [][]int, k int, bridgeGaps bool) [][]float64 {
	counts := make([][]float64, k)
	for i := range counts {
		counts[i] = make([]float64, k)
	}
	for _, seq := range sequences {
		prev := -1
		for _, c := range seq {
			if c < 0 || c >= k {
				if !bridgeGaps {
					prev = -1
				}
				continue
			}
			if prev >= 0 {
				counts[prev][c]++
			}
			prev = c
		}
	}
	for a := range counts {
		total := 0.0
		for _, v := range counts[a] {
			total += v
		}
		if total > 0 {
			for b := range counts[a] {
				counts[a][b] /= total
			}
		}
	}
	return counts
}
