package stats

import (
	"fmt"
	"math"
)

// CoefBlock is one block (count model or zero-inflation model) of a fitted
// zero-inflated regression, with named coefficients for reporting.
type CoefBlock struct {
	Names   []string
	Coef    []float64
	StdErr  []float64
	ZValues []float64
	PValues []float64
}

// Stars returns the significance stars for coefficient j.
func (b *CoefBlock) Stars(j int) string { return SignificanceStars(b.PValues[j]) }

// ZIPResult is a fitted Zero-Inflated Poisson regression, mirroring the
// quantities the paper reports in Tables 9 and 10: both coefficient blocks,
// the share of zero responses, McFadden's pseudo R², and the Vuong test
// against a plain Poisson model.
type ZIPResult struct {
	Count *CoefBlock // Poisson count model (log link)
	Zero  *CoefBlock // zero-inflation model (logit link)

	LogLik    float64
	AIC, BIC  float64
	McFadden  float64
	N         int
	PctZero   float64 // percentage of observations with zero response
	Vuong     float64 // Vuong z statistic, positive favours ZIP over Poisson
	VuongP    float64 // one-sided p-value for "ZIP is better"
	Iters     int
	Converged bool
}

const (
	zipMaxIter = 900
	zipTol     = 3e-8
)

// ZIPRegression fits a zero-inflated Poisson model where the count mean is
// exp(countX·beta) and the structural-zero probability is
// logistic(zeroX·gamma), via the standard EM algorithm (structural-zero
// membership as the latent variable). countNames and zeroNames label the
// respective design columns for reporting and must match the column counts.
//
// Standard errors come from the numerically evaluated observed information
// matrix at the EM optimum.
func ZIPRegression(countX *Matrix, y []float64, zeroX *Matrix, countNames, zeroNames []string) (*ZIPResult, error) {
	if err := checkDesign(countX, y, nil); err != nil {
		return nil, err
	}
	if err := checkDesign(zeroX, y, nil); err != nil {
		return nil, err
	}
	if len(countNames) != countX.Cols {
		return nil, fmt.Errorf("stats: %d count names for %d columns", len(countNames), countX.Cols)
	}
	if len(zeroNames) != zeroX.Cols {
		return nil, fmt.Errorf("stats: %d zero names for %d columns", len(zeroNames), zeroX.Cols)
	}
	n := len(y)
	zeros := 0
	for _, v := range y {
		if v < 0 || v != math.Trunc(v) {
			return nil, fmt.Errorf("stats: ZIP response must be a non-negative integer, got %g", v)
		}
		if v == 0 {
			zeros++
		}
	}

	zd := newZIPData(countX, y, zeroX)
	// One plain Poisson fit serves as the EM's starting point and as the
	// Vuong test's alternative.
	pois, err := poissonFit(countX, y, nil)
	if err != nil {
		return nil, fmt.Errorf("stats: ZIP init failed: %w", err)
	}
	beta, gamma, lik, iters, converged, err := zd.em(pois.coef)
	if err != nil {
		return nil, err
	}

	res := &ZIPResult{
		N:         n,
		PctZero:   100 * float64(zeros) / float64(n),
		LogLik:    lik,
		Iters:     iters,
		Converged: converged,
	}
	p, q := countX.Cols, zeroX.Cols
	k := p + q
	res.AIC = -2*lik + 2*float64(k)
	res.BIC = -2*lik + float64(k)*math.Log(float64(n))

	// Standard errors from the observed information (numerical Hessian).
	se, err := zd.stdErrs(beta, gamma)
	if err != nil {
		return nil, err
	}
	res.Count = newCoefBlock(countNames, beta, se[:p])
	res.Zero = newCoefBlock(zeroNames, gamma, se[p:])

	// Null model for McFadden: intercept-only ZIP.
	ones := NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		ones.Set(i, 0, 1)
	}
	null := &zipData{countX: ones, zeroX: ones, y: y, lg: zd.lg}
	if npois, err := poissonFit(ones, y, nil); err == nil {
		_, _, nullLik, _, _, err := null.em(npois.coef)
		if err == nil && nullLik != 0 {
			res.McFadden = 1 - lik/nullLik
		}
	}

	// Vuong test against the plain Poisson regression on the count design.
	res.Vuong, res.VuongP = zd.vuong(beta, gamma, pois.coef)
	return res, nil
}

func newCoefBlock(names []string, coef, se []float64) *CoefBlock {
	b := &CoefBlock{
		Names:   append([]string(nil), names...),
		Coef:    append([]float64(nil), coef...),
		StdErr:  append([]float64(nil), se...),
		ZValues: make([]float64, len(coef)),
		PValues: make([]float64, len(coef)),
	}
	for j := range coef {
		if se[j] > 0 {
			b.ZValues[j] = coef[j] / se[j]
		}
		b.PValues[j] = PValueTwoSided(b.ZValues[j])
	}
	return b
}

// zipData is one ZIP model's designs and response, with lgamma(y+1)
// tabulated per row: a fit evaluates the Poisson PMF of the same counts
// in every EM iteration and every Hessian probe.
type zipData struct {
	countX, zeroX *Matrix
	y             []float64
	lg            []float64 // lgammaCount(int(y[i]))
}

func newZIPData(countX *Matrix, y []float64, zeroX *Matrix) *zipData {
	lg := make([]float64, len(y))
	for i, v := range y {
		lg[i] = lgammaCount(int(v))
	}
	return &zipData{countX: countX, zeroX: zeroX, y: y, lg: lg}
}

// mu is row i's count mean under beta.
func (z *zipData) mu(i int, beta []float64) float64 {
	return math.Exp(clampEta(Dot(z.countX.Row(i), beta)))
}

// pi is row i's structural-zero probability under gamma.
func (z *zipData) pi(i int, gamma []float64) float64 {
	return 1 / (1 + math.Exp(-clampEta(Dot(z.zeroX.Row(i), gamma))))
}

// em runs the EM loop from the count coefficients beta0 and the empirical
// excess-zero share, returning the count and zero coefficients, the
// final log-likelihood, iterations, and convergence flag.
func (z *zipData) em(beta0 []float64) (beta, gamma []float64, lik float64, iters int, converged bool, err error) {
	beta = beta0
	y := z.y
	n := len(y)
	gamma = make([]float64, z.zeroX.Cols)
	zeroShare := 0.0
	for _, v := range y {
		if v == 0 {
			zeroShare++
		}
	}
	zeroShare /= float64(n)
	gamma[0] = math.Log((zeroShare + 0.05) / (1 - zeroShare + 0.05))

	r := make([]float64, n) // E[structural zero | y]
	wCount := make([]float64, n)
	prev := math.Inf(-1)
	for iter := 1; iter <= zipMaxIter; iter++ {
		iters = iter
		// E-step.
		lik = 0
		for i := 0; i < n; i++ {
			mu := z.mu(i, beta)
			pi := z.pi(i, gamma)
			if y[i] == 0 {
				pz := pi + (1-pi)*math.Exp(-mu)
				if pz < 1e-300 {
					pz = 1e-300
				}
				r[i] = pi / pz
				lik += math.Log(pz)
			} else {
				r[i] = 0
				lik += math.Log1p(-pi) + poissonLogPMFLg(int(y[i]), mu, z.lg[i])
			}
			wCount[i] = 1 - r[i]
		}
		if math.Abs(lik-prev) < zipTol*(math.Abs(lik)+1) {
			converged = true
			break
		}
		prev = lik

		// M-step: weighted Poisson for the count part, fractional-response
		// logistic for the zero part. Only their coefficients are used.
		pfit, perr := poissonFit(z.countX, y, wCount)
		if perr != nil {
			return nil, nil, 0, iters, false, fmt.Errorf("stats: ZIP count M-step: %w", perr)
		}
		beta = pfit.coef
		lfit, lerr := logisticFit(z.zeroX, r, nil)
		if lerr != nil {
			return nil, nil, 0, iters, false, fmt.Errorf("stats: ZIP zero M-step: %w", lerr)
		}
		gamma = lfit.coef
	}
	lik = z.logLik(beta, gamma)
	return beta, gamma, lik, iters, converged, nil
}

// logLik is the ZIP log-likelihood at (beta, gamma).
func (z *zipData) logLik(beta, gamma []float64) float64 {
	lik := 0.0
	for i, v := range z.y {
		lik += zipLogPMFLg(int(v), z.pi(i, gamma), z.mu(i, beta), z.lg[i])
	}
	return lik
}

// countTerms writes row i's count-side log-likelihood factor under beta
// to dst[i]: exp(-mu) for a zero response, the Poisson log-PMF otherwise.
// It returns dst.
func (z *zipData) countTerms(beta, dst []float64) []float64 {
	for i, v := range z.y {
		mu := z.mu(i, beta)
		if v == 0 {
			dst[i] = math.Exp(-mu)
		} else {
			dst[i] = poissonLogPMFLg(int(v), mu, z.lg[i])
		}
	}
	return dst
}

// zeroTerms writes row i's zero-side log-likelihood factor under gamma to
// dst[i]: pi for a zero response, log1p(-pi) otherwise. It returns dst.
func (z *zipData) zeroTerms(gamma, dst []float64) []float64 {
	for i, v := range z.y {
		pi := z.pi(i, gamma)
		if v == 0 {
			dst[i] = pi
		} else {
			dst[i] = math.Log1p(-pi)
		}
	}
	return dst
}

// combine sums, in row order, the ZIP log-likelihood terms made from
// count-side and zero-side factors: the operations zipLogPMFLg performs
// on the same pi and mu, so the sum equals logLik bit for bit.
func (z *zipData) combine(count, zero []float64) float64 {
	lik := 0.0
	for i, v := range z.y {
		if v == 0 {
			pi := zero[i]
			lik += math.Log(pi + (1-pi)*count[i])
		} else {
			lik += zero[i] + count[i]
		}
	}
	return lik
}

// stdErrs computes sqrt(diag(inv(-H))) where H is the numerically
// differentiated Hessian of the ZIP log-likelihood at (beta, gamma).
//
// Each probe evaluates the log-likelihood at theta with one or two
// coordinates stepped. Count factors depend on beta alone and zero
// factors on gamma alone, so the factors of every single-coordinate step
// are tabulated once: the diagonal and the mixed count×zero probes are
// then table sums, and a probe stepping two coordinates of one block
// recomputes only that block's factors.
func (z *zipData) stdErrs(beta, gamma []float64) ([]float64, error) {
	p, q := len(beta), len(gamma)
	k := p + q
	n := len(z.y)
	theta := make([]float64, k)
	copy(theta, beta)
	copy(theta[p:], gamma)
	step := make([]float64, k)
	for j := 0; j < k; j++ {
		step[j] = 1e-4 * (math.Abs(theta[j]) + 1e-2)
	}

	t := make([]float64, k)
	// terms tabulates the factors of the block holding coordinate b at t.
	terms := func(b int, dst []float64) []float64 {
		if b < p {
			return z.countTerms(t[:p], dst)
		}
		return z.zeroTerms(t[p:], dst)
	}
	base := [2][]float64{z.countTerms(beta, make([]float64, n)), z.zeroTerms(gamma, make([]float64, n))}
	// single[j][s] holds coordinate j's block factors with step[j] added
	// (s = 0) or subtracted (s = 1). A diagonal probe adds its step and
	// then +0, which leaves the stepped coordinate unchanged, since a
	// nonzero step never sums to −0.
	single := make([][2][]float64, k)
	for j := 0; j < k; j++ {
		for s, d := range [2]float64{step[j], -step[j]} {
			copy(t, theta)
			t[j] += d
			single[j][s] = terms(j, make([]float64, n))
		}
	}
	// withBase is the log-likelihood when coordinate j's block has
	// factors f and the other block is at theta.
	withBase := func(j int, f []float64) float64 {
		if j < p {
			return z.combine(f, base[1])
		}
		return z.combine(base[0], f)
	}
	scratch := make([]float64, n)
	// pair is the log-likelihood at theta with da added to coordinate a
	// and then db to coordinate b, both in a's block.
	pair := func(a, b int, da, db float64) float64 {
		copy(t, theta)
		t[a] += da
		t[b] += db
		return withBase(a, terms(a, scratch))
	}
	f0 := z.combine(base[0], base[1])

	h := NewMatrix(k, k)
	// Central-difference Hessian.
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			ha, hb := step[a], step[b]
			var v float64
			switch {
			case a == b:
				v = (withBase(a, single[a][0]) - 2*f0 + withBase(a, single[a][1])) / (ha * ha)
			case a < p && b >= p:
				ap, am, bp, bm := single[a][0], single[a][1], single[b][0], single[b][1]
				v = (z.combine(ap, bp) - z.combine(ap, bm) - z.combine(am, bp) + z.combine(am, bm)) / (4 * ha * hb)
			default:
				v = (pair(a, b, ha, hb) - pair(a, b, ha, -hb) - pair(a, b, -ha, hb) + pair(a, b, -ha, -hb)) / (4 * ha * hb)
			}
			h.Set(a, b, v)
			h.Set(b, a, v)
		}
	}
	// Observed information is -H; invert with ridge fallback.
	info := NewMatrix(k, k)
	for i := range info.Data {
		info.Data[i] = -h.Data[i]
	}
	cov, err := InvertSPD(info)
	if err != nil {
		return nil, fmt.Errorf("stats: ZIP information matrix: %w", err)
	}
	se := make([]float64, k)
	for j := 0; j < k; j++ {
		se[j] = math.Sqrt(math.Max(cov.At(j, j), 0))
	}
	return se, nil
}

// vuong computes the Vuong non-nested test statistic comparing the
// fitted ZIP model against a plain Poisson fit with coefficients
// poisBeta. Positive values favour ZIP; the returned p-value is one-sided.
func (z *zipData) vuong(beta, gamma, poisBeta []float64) (stat, p float64) {
	n := len(z.y)
	m := make([]float64, n)
	for i, v := range z.y {
		mu := z.mu(i, beta)
		pi := z.pi(i, gamma)
		muP := z.mu(i, poisBeta)
		k := int(v)
		m[i] = zipLogPMFLg(k, pi, mu, z.lg[i]) - poissonLogPMFLg(k, muP, z.lg[i])
	}
	mean := Mean(m)
	sd := StdDev(m)
	if sd == 0 {
		return 0, 1
	}
	stat = math.Sqrt(float64(n)) * mean / sd
	p = 1 - NormalCDF(stat)
	return stat, p
}
