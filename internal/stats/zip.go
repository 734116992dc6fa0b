package stats

import (
	"fmt"
	"math"
)

// CoefBlock is one block (count model or zero-inflation model) of a fitted
// zero-inflated regression, with named coefficients for reporting.
// Identified is false for a coefficient the data do not pin down: its
// estimate is placed by the fit's ridge, and its StdErr, ZValues and
// PValues are NaN.
type CoefBlock struct {
	Names      []string
	Coef       []float64
	StdErr     []float64
	ZValues    []float64
	PValues    []float64
	Identified []bool
}

// Stars returns the significance stars for coefficient j.
func (b *CoefBlock) Stars(j int) string { return SignificanceStars(b.PValues[j]) }

// AnyIdentified reports whether the data identify at least one of the
// block's coefficients.
func (b *CoefBlock) AnyIdentified() bool {
	for _, ok := range b.Identified {
		if ok {
			return true
		}
	}
	return false
}

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
	Iters     int     // EM iterations plus Newton steps
	Converged bool    // the Newton finish met its stop test
}

const (
	// zipMaxIter caps the EM iterations.
	zipMaxIter = 900
	// zipEMTol stops the EM once the log-likelihood changes by less than
	// this share between iterations. The EM only supplies the Newton
	// finish's starting point, but a looser stop can leave it in the
	// basin of a different, lower optimum: the likelihood of a ZIP model
	// is not concave.
	zipEMTol = 3e-8
	// zipNewtonMaxIter caps the Newton steps of the finish.
	zipNewtonMaxIter = 100
	// zipNewtonTol stops the finish once the Newton decrement gᵀ(−H)⁻¹g,
	// about twice the objective gain a full step would bring, falls below
	// this share of the objective: near the optimum that gain drowns in
	// the rounding of the log-likelihood's sum.
	zipNewtonTol = 1e-12
	// zipRidge scales the zero part's ridge: coefficient j is penalised by
	// ½·zipRidge·mean(z_j²)·γ_j², a fixed ridge on the coefficient of the
	// root-mean-square-scaled column. It gives a separated zero part a
	// finite optimum without moving identified coefficients by more than
	// a small fraction of their standard errors.
	zipRidge = 1e-6
	// zipFlagMove is the share of its own size by which a zero-part
	// coefficient would have to move, were the ridge ten times larger, to
	// count as placed by the ridge rather than by the data. An identified
	// coefficient moves by about 9·zipRidge·mean(z_j²)/I_jj of itself,
	// where I_jj is its information: under 1% unless I_jj is below
	// 1e-3·mean(z_j²). Over the 91 Table 9/10 fits of seeds 1–10 at
	// scale 0.05, seed 7 at 0.02 and two more seeds at 0.05, the
	// identified coefficients moved by at most 4.5% of themselves and
	// the others by 11% to 49%.
	zipFlagMove = 0.1
)

// ZIPRegression fits a zero-inflated Poisson model where the count mean is
// exp(countX·beta) and the structural-zero probability is
// logistic(zeroX·gamma). countNames and zeroNames label the respective
// design columns for reporting and must match the column counts.
//
// As in pscl's zeroinfl, EM supplies starting values (structural-zero
// membership as the latent variable, each M-step warm-started from the
// last) and Newton steps on the joint likelihood finish the fit, so the
// reported optimum does not depend on where the EM stopped. The zero part
// carries a small fixed ridge (zipRidge): when it separates the data,
// some of its coefficients would otherwise run to infinity. Those that
// the ridge rather than the data places are flagged as not identified.
//
// Standard errors of the identified coefficients come from the analytic
// observed information at the optimum, without the ridge.
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
	fit, err := zd.fit(pois.coef)
	if err != nil {
		return nil, err
	}
	beta, gamma, lik := fit.beta, fit.gamma, fit.lik

	res := &ZIPResult{
		N:         n,
		PctZero:   100 * float64(zeros) / float64(n),
		LogLik:    lik,
		Iters:     fit.iters,
		Converged: fit.converged,
	}
	p, q := countX.Cols, zeroX.Cols
	k := p + q
	res.AIC = -2*lik + 2*float64(k)
	res.BIC = -2*lik + float64(k)*math.Log(float64(n))

	// Standard errors from the observed information at the optimum.
	identified := make([]bool, k)
	for j := range identified {
		identified[j] = j < p || fit.zeroIdentified[j-p]
	}
	se, err := stdErrs(fit.info, identified)
	if err != nil {
		return nil, err
	}
	res.Count = newCoefBlock(countNames, beta, se[:p], identified[:p])
	res.Zero = newCoefBlock(zeroNames, gamma, se[p:], identified[p:])

	// Null model for McFadden: intercept-only ZIP.
	ones := NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		ones.Set(i, 0, 1)
	}
	null := &zipData{countX: ones, zeroX: ones, y: y, lg: zd.lg, ridge: []float64{zipRidge}}
	if npois, err := poissonFit(ones, y, nil); err == nil {
		nfit, err := null.fit(npois.coef)
		if err == nil && nfit.lik != 0 {
			res.McFadden = 1 - lik/nfit.lik
		}
	}

	// Vuong test against the plain Poisson regression on the count design.
	res.Vuong, res.VuongP = zd.vuong(beta, gamma, pois.coef)
	return res, nil
}

func newCoefBlock(names []string, coef, se []float64, identified []bool) *CoefBlock {
	b := &CoefBlock{
		Names:      append([]string(nil), names...),
		Coef:       append([]float64(nil), coef...),
		StdErr:     append([]float64(nil), se...),
		ZValues:    make([]float64, len(coef)),
		PValues:    make([]float64, len(coef)),
		Identified: append([]bool(nil), identified...),
	}
	for j := range coef {
		if !identified[j] {
			b.StdErr[j], b.ZValues[j], b.PValues[j] = math.NaN(), math.NaN(), math.NaN()
			continue
		}
		if se[j] > 0 {
			b.ZValues[j] = coef[j] / se[j]
		}
		b.PValues[j] = PValueTwoSided(b.ZValues[j])
	}
	return b
}

// zipData is one ZIP model's designs and response, with lgamma(y+1)
// tabulated per row: a fit evaluates the Poisson PMF of the same counts
// in every EM iteration and every likelihood evaluation. ridge holds the
// zero part's per-coefficient ridge, zipRidge·mean(z_j²).
type zipData struct {
	countX, zeroX *Matrix
	y             []float64
	lg            []float64 // lgammaCount(int(y[i]))
	ridge         []float64
}

func newZIPData(countX *Matrix, y []float64, zeroX *Matrix) *zipData {
	lg := make([]float64, len(y))
	for i, v := range y {
		lg[i] = lgammaCount(int(v))
	}
	ridge := make([]float64, zeroX.Cols)
	for i := 0; i < zeroX.Rows; i++ {
		for j, v := range zeroX.Row(i) {
			ridge[j] += v * v
		}
	}
	for j := range ridge {
		ridge[j] *= zipRidge / float64(zeroX.Rows)
	}
	return &zipData{countX: countX, zeroX: zeroX, y: y, lg: lg, ridge: ridge}
}

// mu is row i's count mean under beta.
func (z *zipData) mu(i int, beta []float64) float64 {
	return math.Exp(clampEta(Dot(z.countX.Row(i), beta)))
}

// pi is row i's structural-zero probability under gamma.
func (z *zipData) pi(i int, gamma []float64) float64 {
	return 1 / (1 + math.Exp(-clampEta(Dot(z.zeroX.Row(i), gamma))))
}

// zipFit is a fitted ZIP optimum: the coefficients, the log-likelihood
// and observed information there (both without the ridge), which
// zero-part coefficients the data identify, the EM iterations plus
// Newton steps taken, and whether the Newton finish met its stop test.
type zipFit struct {
	beta, gamma    []float64
	lik            float64
	info           *Matrix
	zeroIdentified []bool
	iters          int
	converged      bool
}

// emFit is where the EM stopped: the coefficients, the EM iterations,
// and the IRLS iterations its M-steps ran in the count and zero parts.
type emFit struct {
	beta, gamma         []float64
	iters               int
	countIRLS, zeroIRLS int
}

// fit runs the EM from the count coefficients beta0 and finishes with
// Newton steps.
func (z *zipData) fit(beta0 []float64) (zipFit, error) {
	e, err := z.em(beta0)
	if err != nil {
		return zipFit{}, err
	}
	f := z.finish(e.beta, e.gamma)
	f.iters += e.iters
	return f, nil
}

// em runs the EM loop from the count coefficients beta0 and the empirical
// excess-zero share until the log-likelihood changes by less than
// zipEMTol relative, and returns where it stopped. Each M-step's IRLS fits start from the previous
// coefficients, and their first iteration takes the linear predictors
// and means the E-step computed at those coefficients. The two fits
// share one IRLS scratch for the whole EM.
func (z *zipData) em(beta0 []float64) (emFit, error) {
	y := z.y
	n := len(y)
	f := emFit{beta: beta0, gamma: make([]float64, z.zeroX.Cols)}
	zeroShare := 0.0
	for _, v := range y {
		if v == 0 {
			zeroShare++
		}
	}
	zeroShare /= float64(n)
	f.gamma[0] = math.Log((zeroShare + 0.05) / (1 - zeroShare + 0.05))

	r := make([]float64, n) // E[structural zero | y]
	wCount := make([]float64, n)
	// The zero-part fit runs after the count-part fit, so the two share
	// their working weights and responses.
	count := newIRLSWork(n, z.countX.Cols)
	zero := &irlsWork{
		eta: make([]float64, n), mu: make([]float64, n), prevMu: make([]float64, n),
		w: count.w, z: count.z, normalEqs: newNormalEqs(z.zeroX.Cols),
	}
	// M-step: weighted Poisson for the count part, fractional-response
	// logistic for the zero part. Only their coefficients are used.
	countGLM := glm{x: z.countX, y: y, weights: wCount, lg: z.lg}
	zeroGLM := glm{x: z.zeroX, y: r, logistic: true}
	prev := math.Inf(-1)
	for iter := 1; iter <= zipMaxIter; iter++ {
		f.iters = iter
		// E-step.
		lik := 0.0
		for i := 0; i < n; i++ {
			etaC := clampEta(Dot(z.countX.Row(i), f.beta))
			mu := math.Exp(etaC)
			etaZ := clampEta(Dot(z.zeroX.Row(i), f.gamma))
			pi := 1 / (1 + math.Exp(-etaZ))
			count.eta[i], count.mu[i] = etaC, mu
			zero.eta[i], zero.mu[i] = etaZ, pi
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
		if math.Abs(lik-prev) < zipEMTol*(math.Abs(lik)+1) {
			break
		}
		prev = lik

		pfit, err := countGLM.irls(f.beta, count)
		if err != nil {
			return emFit{}, fmt.Errorf("stats: ZIP count M-step: Poisson IRLS step failed: %w", err)
		}
		lfit, err := zeroGLM.irls(f.gamma, zero)
		if err != nil {
			return emFit{}, fmt.Errorf("stats: ZIP zero M-step: logistic Newton step failed: %w", err)
		}
		f.beta, f.gamma = pfit.coef, lfit.coef
		f.countIRLS += pfit.iters
		f.zeroIRLS += lfit.iters
	}
	return f, nil
}

// derivs returns the log-likelihood at (beta, gamma) with its analytic
// gradient and the observed information −H, all without the ridge.
// Per row, with r = pi/P(y=0) the posterior structural-zero share of a
// zero response, the derivatives in the count and zero linear
// predictors are
//
//	y > 0: d/dηc = y − mu,       d/dηz = −pi,
//	       −d²/dηc² = mu,        −d²/dηz² = pi(1−pi),  −d²/dηc dηz = 0;
//	y = 0: d/dηc = −(1−r)mu,     d/dηz = r − pi,
//	       −d²/dηc² = (1−r)mu(1−r·mu),  −d²/dηz² = pi(1−pi) − r(1−r),
//	       −d²/dηc dηz = −r(1−r)mu.
//
// A linear predictor held at its clamp (|η| > etaCap) does not move with
// the coefficients, so its derivatives are zero. The per-row derivatives
// go to rows, which finish reuses across its Newton steps.
func (z *zipData) derivs(beta, gamma []float64, rows *derivRows) (lik float64, grad []float64, info *Matrix) {
	p, q := len(beta), len(gamma)
	gc, gz, icc, izz, icz := rows.gc, rows.gz, rows.icc, rows.izz, rows.icz
	for i, v := range z.y {
		etaC, etaZ := Dot(z.countX.Row(i), beta), Dot(z.zeroX.Row(i), gamma)
		mu := math.Exp(clampEta(etaC))
		pi := 1 / (1 + math.Exp(-clampEta(etaZ)))
		lik += zipLogPMFLg(int(v), pi, mu, z.lg[i])
		if v > 0 {
			gc[i], gz[i] = v-mu, -pi
			icc[i], izz[i], icz[i] = mu, pi*(1-pi), 0
		} else {
			r := pi / (pi + (1-pi)*math.Exp(-mu))
			gc[i], gz[i] = -(1-r)*mu, r-pi
			icc[i], izz[i], icz[i] = (1-r)*mu*(1-r*mu), pi*(1-pi)-r*(1-r), -r*(1-r)*mu
		}
		if math.Abs(etaC) > etaCap {
			gc[i], icc[i], icz[i] = 0, 0, 0
		}
		if math.Abs(etaZ) > etaCap {
			gz[i], izz[i], icz[i] = 0, 0, 0
		}
	}
	grad = append(XtWz(z.countX, nil, gc), XtWz(z.zeroX, nil, gz)...)
	cc, zz := XtWX(z.countX, icc), XtWX(z.zeroX, izz)
	k := p + q
	info = NewMatrix(k, k)
	for a := 0; a < p; a++ {
		copy(info.Data[a*k:a*k+p], cc.Row(a))
	}
	for a := 0; a < q; a++ {
		copy(info.Data[(p+a)*k+p:(p+a)*k+k], zz.Row(a))
	}
	for i := range z.y {
		if icz[i] == 0 {
			continue
		}
		xr, zr := z.countX.Row(i), z.zeroX.Row(i)
		for a, xa := range xr {
			w := icz[i] * xa
			dst := info.Data[a*k+p : a*k+k]
			for b, zb := range zr {
				dst[b] += w * zb
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := p; b < k; b++ {
			info.Data[b*k+a] = info.Data[a*k+b]
		}
	}
	return lik, grad, info
}

// derivRows holds derivs' per-row first and second derivatives in the
// count and zero linear predictors.
type derivRows struct {
	gc, gz, icc, izz, icz []float64
}

func newDerivRows(n int) *derivRows {
	return &derivRows{
		gc: make([]float64, n), gz: make([]float64, n),
		icc: make([]float64, n), izz: make([]float64, n), icz: make([]float64, n),
	}
}

// objective is the log-likelihood less the zero part's ridge.
func (z *zipData) objective(lik float64, gamma []float64) float64 {
	for j, g := range gamma {
		lik -= 0.5 * z.ridge[j] * g * g
	}
	return lik
}

// finish maximises the ridged log-likelihood by damped Newton steps from
// (beta, gamma). Once the Newton decrement gᵀ(−H)⁻¹g falls below
// zipNewtonTol relative to the objective, it takes that last full step
// and stops. It then flags the zero-part coefficients that the ridge
// rather than the data places: those that would move by more than
// zipFlagMove of themselves were the ridge ten times larger, which one
// solve with the final information matrix predicts.
// The fit keeps the log-likelihood and the information at the final
// coefficients without the ridge: the standard errors come from that
// information.
func (z *zipData) finish(beta, gamma []float64) zipFit {
	p, q := len(beta), len(gamma)
	k := p + q
	theta := append(append(make([]float64, 0, k), beta...), gamma...)
	next := make([]float64, k)
	damped := NewMatrix(k, k)
	// info is the information with the ridge added.
	info := NewMatrix(k, k)
	rows := newDerivRows(len(z.y))
	f := zipFit{}
	// mu damps a step towards the gradient, Levenberg–Marquardt style, by
	// adding mu times the information's diagonal. It grows tenfold while
	// the damped information is not positive definite or the step would
	// lower the objective, and shrinks tenfold after each step taken: on
	// a non-concave stretch, where the Newton step is no ascent
	// direction, the damping finds one.
	mu := 0.0
	for {
		lik, grad, inf := z.derivs(theta[:p], theta[p:], rows)
		f.lik, f.info = lik, inf
		copy(info.Data, inf.Data)
		for j := 0; j < q; j++ {
			grad[p+j] -= z.ridge[j] * theta[p+j]
			info.Data[(p+j)*k+p+j] += z.ridge[j]
		}
		if f.converged || f.iters == zipNewtonMaxIter {
			break
		}
		f.iters++
		obj := z.objective(lik, theta[p:])
		if l, err := Cholesky(info); err == nil {
			step := choleskySolve(l, grad)
			if Dot(grad, step) < zipNewtonTol*(math.Abs(obj)+1) {
				for j := range theta {
					theta[j] += step[j]
				}
				f.converged = true
				continue
			}
		}
		accepted := false
		for try := 0; try < 60 && !accepted; try++ {
			copy(damped.Data, info.Data)
			for j := 0; j < k; j++ {
				damped.Data[j*k+j] += mu * math.Abs(info.Data[j*k+j])
			}
			if l, err := Cholesky(damped); err == nil {
				step := choleskySolve(l, grad)
				for j := range next {
					next[j] = theta[j] + step[j]
				}
				accepted = z.objective(z.logLik(next[:p], next[p:]), next[p:]) >= obj
			}
			switch {
			case accepted:
				mu /= 10
			case mu == 0:
				mu = 1e-6
			default:
				mu *= 10
			}
		}
		if !accepted {
			break
		}
		theta, next = next, theta
	}
	f.beta = append([]float64(nil), theta[:p]...)
	f.gamma = append([]float64(nil), theta[p:]...)

	// Under a ridge ten times larger the gradient at theta is −9·ridge·γ;
	// one Newton step with the correspondingly larger information gives
	// the move.
	rhs := make([]float64, k)
	for j := 0; j < q; j++ {
		rhs[p+j] = -9 * z.ridge[j] * theta[p+j]
		info.Data[(p+j)*k+p+j] += 9 * z.ridge[j]
	}
	move, err := SolveSPD(info, rhs)
	f.zeroIdentified = make([]bool, q)
	for j := range f.zeroIdentified {
		f.zeroIdentified[j] = err == nil && z.ridge[j] > 0 && math.Abs(move[p+j]) <= zipFlagMove*math.Abs(theta[p+j])
	}
	return f
}

// logLik is the ZIP log-likelihood at (beta, gamma).
func (z *zipData) logLik(beta, gamma []float64) float64 {
	lik := 0.0
	for i, v := range z.y {
		lik += zipLogPMFLg(int(v), z.pi(i, gamma), z.mu(i, beta), z.lg[i])
	}
	return lik
}

// stdErrs returns sqrt(diag(inv(info))) over the identified
// coordinates, with info restricted to them, and NaN for the others.
func stdErrs(info *Matrix, identified []bool) ([]float64, error) {
	var idx []int
	for j, ok := range identified {
		if ok {
			idx = append(idx, j)
		}
	}
	m := len(idx)
	sub := NewMatrix(m, m)
	for a, ja := range idx {
		for b, jb := range idx {
			sub.Set(a, b, info.At(ja, jb))
		}
	}
	cov, err := InvertSPD(sub)
	if err != nil {
		return nil, fmt.Errorf("stats: ZIP information matrix: %w", err)
	}
	se := make([]float64, len(identified))
	for j := range se {
		se[j] = math.NaN()
	}
	for a, j := range idx {
		se[j] = math.Sqrt(math.Max(cov.At(a, a), 0))
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
