package stats

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
