package stats

import (
	"encoding/binary"
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

	// Rows with the same counts, bit for bit, have the same E-step terms,
	// log-likelihood and posteriors, so the E-step runs once per distinct
	// row pattern: pat[i] is row i's pattern and first[p] the first row
	// of pattern p.
	pat, first := lcaPatterns(data, d)
	np := len(first)

	// The E-step term of cell (p, j) under class c is PoissonLogPMF(count,
	// rate), i.e. count·log(rate) − rate − lgamma(count+1): counts are
	// validated non-negative and rates never fall below lcaRateEps, so its
	// other branches never apply. The lgamma part is fixed for the fit and
	// log(rate) for an iteration, so they are tabulated (patterns×D once,
	// K×D per iteration) and the term is evaluated from the tables with
	// the same operations. The M-step adds post·x only for the nonzero
	// cells of each pattern, listed flat: pattern p's columns and counts
	// are nzCol and nzVal[nzOff[p]:nzOff[p+1]].
	lgs := make([]float64, np*d)
	nzOff := make([]int32, np+1)
	var nzCol []int32
	var nzVal []float64
	for p, i := range first {
		for j, v := range data[i] {
			lgs[p*d+j] = lgammaCount(int(v))
			if v != 0 {
				nzCol = append(nzCol, int32(j))
				nzVal = append(nzVal, v)
			}
		}
		nzOff[p+1] = int32(len(nzCol))
	}
	logW := make([]float64, k)
	logRates := make([]float64, k*d)
	// Per-pattern results of the latest E-step: the row log-likelihood
	// and the K posteriors.
	plse := make([]float64, np)
	ppost := make([]float64, np*k)
	// Sufficient statistics of the M-step, accumulated in row order:
	// wc[c] = Σ_i post[i][c], num[c·d+j] = Σ_i post[i][c]·x_ij.
	wc := make([]float64, k)
	num := make([]float64, k*d)

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
		// E-step in log space, once per pattern.
		for p, i := range first {
			// Reslicing every operand to len(row) lets the compiler drop
			// the bounds checks of the innermost loop.
			row := data[i][:d]
			lg := lgs[p*d : (p+1)*d][:len(row)]
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
			plse[p] = lse
			pp := ppost[p*k : (p+1)*k]
			for c := range pp {
				pp[c] = math.Exp(logp[c] - lse)
			}
		}
		lik := 0.0
		for _, p := range pat {
			lik += plse[p]
		}
		if math.Abs(lik-prev) < lcaTol*(math.Abs(lik)+1) {
			res.Converged = true
			res.LogLik = lik
			break
		}
		prev = lik
		res.LogLik = lik

		// M-step. Each row still adds its terms in row order. A zero
		// count's term post·0 is +0 or −0 (post is in [0, 1]); every num
		// entry starts at +0 and only receives terms ≥ 0, and x + ±0 = x
		// for such entries under round-to-nearest, so skipping it changes
		// no bit.
		clear(wc)
		clear(num)
		for _, p := range pat {
			lo, hi := nzOff[p], nzOff[p+1]
			cols := nzCol[lo:hi]
			vals := nzVal[lo:hi][:len(cols)]
			for c, pc := range ppost[int(p)*k : (int(p)+1)*k] {
				wc[c] += pc
				nc := num[c*d : (c+1)*d]
				for t, j := range cols {
					nc[j] += pc * vals[t]
				}
			}
		}
		for c, rc := range rates {
			weights[c] = wc[c] / float64(n)
			if wc[c] > 0 {
				for j := range rc {
					rc[j] = math.Max(num[c*d+j]/wc[c], lcaRateEps)
				}
			}
		}
	}

	// The posteriors of the last E-step, copied out per row.
	post := make([][]float64, n)
	postData := make([]float64, n*k)
	for i, p := range pat {
		post[i] = postData[i*k : (i+1)*k : (i+1)*k]
		copy(post[i], ppost[int(p)*k:(int(p)+1)*k])
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

// lcaPatterns maps each row of data to the id of its distinct pattern,
// keyed on the exact bits of its d counts, numbering patterns in order of
// first appearance. It returns the per-row ids and each pattern's first
// row.
func lcaPatterns(data [][]float64, d int) (pat, first []int32) {
	pat = make([]int32, len(data))
	ids := make(map[string]int32)
	key := make([]byte, 8*d)
	for i, row := range data {
		for j, v := range row {
			binary.LittleEndian.PutUint64(key[8*j:], math.Float64bits(v))
		}
		p, ok := ids[string(key)]
		if !ok {
			p = int32(len(first))
			ids[string(key)] = p
			first = append(first, int32(i))
		}
		pat[i] = p
	}
	return pat, first
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
