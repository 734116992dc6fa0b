package stats

import (
	"fmt"
	"math"
)

// ZIPReference is a ZIP fit finished from the cold-start EM.
type ZIPReference struct {
	Coef           []float64 // count coefficients, then zero coefficients
	ZeroIdentified []bool
	LogLik         float64
	Converged      bool
	EMLogLik       float64 // the log-likelihood at which the cold EM stopped
	EMObjective    float64 // the ridged log-likelihood there
}

// ZIPColdReference runs ZIPRegression's Newton finish from the cold-start
// EM of refZIPEM, the EM as it ran before the finish existed, instead of
// from the warm-started EM.
func ZIPColdReference(countX *Matrix, y []float64, zeroX *Matrix) (*ZIPReference, error) {
	beta, gamma, emLik, _, _, err := refZIPEM(countX, y, zeroX)
	if err != nil {
		return nil, err
	}
	z := newZIPData(countX, y, zeroX)
	f := z.finish(beta, gamma)
	return &ZIPReference{
		Coef:           append(append([]float64(nil), f.beta...), f.gamma...),
		ZeroIdentified: f.zeroIdentified,
		LogLik:         f.lik,
		Converged:      f.converged,
		EMLogLik:       emLik,
		EMObjective:    z.objective(emLik, gamma),
	}, nil
}

// ZIPObjective is the ridged log-likelihood that ZIPRegression's Newton
// finish maximises, at (beta, gamma).
func ZIPObjective(countX *Matrix, y []float64, zeroX *Matrix, beta, gamma []float64) float64 {
	z := newZIPData(countX, y, zeroX)
	return z.objective(z.logLik(beta, gamma), gamma)
}

// CompareZIPEM runs ZIPRegression's starting Poisson fit and EM beside
// refZIPWarmEM, whose IRLS recomputes every mean from the coefficients.
// It returns an error unless both end at Float64bits-equal coefficients
// after the same numbers of EM iterations and of count and zero IRLS
// iterations. capped is the number of the reference's zero-part M-steps
// that ran to the IRLS iteration cap.
func CompareZIPEM(countX *Matrix, y []float64, zeroX *Matrix) (capped int, err error) {
	pois, err := poissonFit(countX, y, nil)
	if err != nil {
		return 0, err
	}
	got, err := newZIPData(countX, y, zeroX).em(pois.coef)
	if err != nil {
		return 0, err
	}
	want, err := refZIPWarmEM(countX, y, zeroX)
	if err != nil {
		return 0, err
	}
	countIRLS, zeroIRLS := 0, 0
	for _, it := range want.countIRLS {
		countIRLS += it
	}
	for _, it := range want.zeroIRLS {
		zeroIRLS += it
		if it == glmMaxIter {
			capped++
		}
	}
	if got.iters != want.iters || got.countIRLS != countIRLS || got.zeroIRLS != zeroIRLS {
		return capped, fmt.Errorf("EM %d, IRLS %d count and %d zero iterations; reference %d, %d and %d",
			got.iters, got.countIRLS, got.zeroIRLS, want.iters, countIRLS, zeroIRLS)
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{{"beta", got.beta, want.beta}, {"gamma", got.gamma, want.gamma}} {
		for j := range v.want {
			if math.Float64bits(v.got[j]) != math.Float64bits(v.want[j]) {
				return capped, fmt.Errorf("%s[%d] = %v, reference %v", v.name, j, v.got[j], v.want[j])
			}
		}
	}
	return capped, nil
}
