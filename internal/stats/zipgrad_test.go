package stats

import (
	"fmt"
	"math"
	"testing"

	"turnup/internal/rng"
)

// The direct-maximisation ZIP solver is a reference for ZIPRegression's
// EM and Newton finish in zip.go: TestZIPGradientMatchesEM checks that
// both reach the same optimum, and the BenchmarkAblationZIPSolver pair
// compares their cost (DESIGN.md §6). Nothing outside the tests calls it.

// ZIPGradientResult is the lean output of the direct-maximisation ZIP
// solver of the DESIGN.md §6 solver ablation: coefficients and the
// achieved log-likelihood, without the standard-error machinery.
type ZIPGradientResult struct {
	CountCoef []float64
	ZeroCoef  []float64
	LogLik    float64
	Iters     int
	Converged bool
}

// ZIPRegressionGradient fits the same zero-inflated Poisson model as
// ZIPRegression by direct gradient ascent on the joint log-likelihood with
// backtracking line search, instead of EM. It exists to validate (and
// benchmark against) the EM solver: both must reach the same optimum.
func ZIPRegressionGradient(countX *Matrix, y []float64, zeroX *Matrix) (*ZIPGradientResult, error) {
	if err := checkDesign(countX, y, nil); err != nil {
		return nil, err
	}
	if err := checkDesign(zeroX, y, nil); err != nil {
		return nil, err
	}
	p, q := countX.Cols, zeroX.Cols
	n := len(y)

	// Warm start like the EM: Poisson fit + empirical zero share.
	pois, err := poissonFit(countX, y, nil)
	if err != nil {
		return nil, fmt.Errorf("stats: gradient ZIP init: %w", err)
	}
	beta := pois.coef
	zd := newZIPData(countX, y, zeroX)
	gamma := make([]float64, q)
	zeroShare := 0.0
	for _, v := range y {
		if v == 0 {
			zeroShare++
		}
	}
	zeroShare /= float64(n)
	gamma[0] = math.Log((zeroShare + 0.05) / (1 - zeroShare + 0.05))

	grad := func(b, g []float64) (db, dg []float64, lik float64) {
		db = make([]float64, p)
		dg = make([]float64, q)
		for i := 0; i < n; i++ {
			xi, zi := countX.Row(i), zeroX.Row(i)
			mu := math.Exp(clampEta(Dot(xi, b)))
			pi := 1 / (1 + math.Exp(-clampEta(Dot(zi, g))))
			if y[i] == 0 {
				den := pi + (1-pi)*math.Exp(-mu)
				if den < 1e-300 {
					den = 1e-300
				}
				lik += math.Log(den)
				// d/dmu log den = -(1-pi)e^{-mu}/den; chain mu' = mu·x.
				dmu := -(1 - pi) * math.Exp(-mu) / den
				for j, x := range xi {
					db[j] += dmu * mu * x
				}
				// d/dpi log den = (1 - e^{-mu})/den; chain pi' = pi(1-pi)·z.
				dpi := (1 - math.Exp(-mu)) / den
				for j, z := range zi {
					dg[j] += dpi * pi * (1 - pi) * z
				}
			} else {
				lik += math.Log1p(-pi) + poissonLogPMFLg(int(y[i]), mu, zd.lg[i])
				for j, x := range xi {
					db[j] += (y[i] - mu) * x
				}
				for j, z := range zi {
					dg[j] += -pi * z
				}
			}
		}
		return db, dg, lik
	}

	res := &ZIPGradientResult{}
	step := 1e-3
	_, _, lik := grad(beta, gamma)
	for iter := 1; iter <= 3000; iter++ {
		res.Iters = iter
		db, dg, _ := grad(beta, gamma)
		// Backtracking: accept the largest step (up to the current one,
		// growing on success) that improves the likelihood.
		improved := false
		for try := 0; try < 30; try++ {
			nb := make([]float64, p)
			ng := make([]float64, q)
			for j := range nb {
				nb[j] = beta[j] + step*db[j]/float64(n)
			}
			for j := range ng {
				ng[j] = gamma[j] + step*dg[j]/float64(n)
			}
			newLik := zd.logLik(nb, ng)
			if newLik > lik {
				if newLik-lik < 1e-10*(math.Abs(lik)+1) {
					beta, gamma, lik = nb, ng, newLik
					res.Converged = true
				} else {
					beta, gamma, lik = nb, ng, newLik
					step *= 1.3
				}
				improved = true
				break
			}
			step /= 2
		}
		if !improved || res.Converged {
			res.Converged = true
			break
		}
	}
	res.CountCoef = beta
	res.ZeroCoef = gamma
	res.LogLik = lik
	return res, nil
}

func TestZIPGradientMatchesEM(t *testing.T) {
	src := rng.New(601)
	countX, y, zeroX := simulateZIP(src, 2500, []float64{1.0, 0.5}, []float64{-0.4, 0.6})
	em, err := ZIPRegression(countX, y, zeroX,
		[]string{"(Intercept)", "x1"}, []string{"(Intercept)", "z1"})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := ZIPRegressionGradient(countX, y, zeroX)
	if err != nil {
		t.Fatal(err)
	}
	// Both optimisers must land on (essentially) the same maximum.
	if diff := math.Abs(em.LogLik - gd.LogLik); diff > 0.05*(math.Abs(em.LogLik)/1000+1) {
		t.Errorf("loglik gap: EM %.4f vs gradient %.4f", em.LogLik, gd.LogLik)
	}
	for j := range em.Count.Coef {
		if math.Abs(em.Count.Coef[j]-gd.CountCoef[j]) > 0.05 {
			t.Errorf("count beta[%d]: EM %.4f vs gradient %.4f", j, em.Count.Coef[j], gd.CountCoef[j])
		}
	}
	for j := range em.Zero.Coef {
		if math.Abs(em.Zero.Coef[j]-gd.ZeroCoef[j]) > 0.12 {
			t.Errorf("zero gamma[%d]: EM %.4f vs gradient %.4f", j, em.Zero.Coef[j], gd.ZeroCoef[j])
		}
	}
}

func TestZIPGradientRejectsBadDesign(t *testing.T) {
	x := NewMatrix(2, 1)
	if _, err := ZIPRegressionGradient(x, []float64{1}, x); err == nil {
		t.Error("row mismatch accepted")
	}
}

// BenchmarkAblationZIPSolverEM vs BenchmarkAblationZIPSolverGradient:
// the EM solver against direct gradient ascent on the same simulated data.
func ablationZIPData() (*Matrix, []float64, *Matrix) {
	src := rng.New(77)
	n := 2000
	countX := NewMatrix(n, 2)
	zeroX := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		countX.Set(i, 0, 1)
		zeroX.Set(i, 0, 1)
		x := src.Norm()
		countX.Set(i, 1, x)
		zeroX.Set(i, 1, src.Norm())
		if src.Bool(0.35) {
			y[i] = 0
		} else {
			y[i] = float64(src.Poisson(3 * (1 + 0.3*x*x)))
		}
	}
	return countX, y, zeroX
}

func BenchmarkAblationZIPSolverEM(b *testing.B) {
	countX, y, zeroX := ablationZIPData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ZIPRegression(countX, y, zeroX,
			[]string{"(Intercept)", "x"}, []string{"(Intercept)", "z"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationZIPSolverGradient(b *testing.B) {
	countX, y, zeroX := ablationZIPData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ZIPRegressionGradient(countX, y, zeroX); err != nil {
			b.Fatal(err)
		}
	}
}
