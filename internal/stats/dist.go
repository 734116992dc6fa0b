package stats

import "math"

// NormalCDF returns P(Z <= x) for a standard normal Z.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// PValueTwoSided returns the two-sided normal p-value for a z statistic.
func PValueTwoSided(z float64) float64 {
	return 2 * NormalCDF(-math.Abs(z))
}

// SignificanceStars renders the paper's convention: * p<0.05, ** p<0.01,
// *** p<0.001, empty otherwise.
func SignificanceStars(p float64) string {
	switch {
	case p < 0.001:
		return "***"
	case p < 0.01:
		return "**"
	case p < 0.05:
		return "*"
	default:
		return ""
	}
}

// PoissonLogPMF returns log P(Y = k) for Y ~ Poisson(lambda).
// For lambda <= 0 it returns 0 probability mass except at k == 0.
func PoissonLogPMF(k int, lambda float64) float64 {
	return poissonLogPMFLg(k, lambda, lgammaCount(k))
}

// lgammaCount returns lgamma(k+1), the log-factorial term of a count k.
// The model kernels tabulate it once per fit, since a fit evaluates the
// same counts' PMFs many times over.
func lgammaCount(k int) float64 {
	lg, _ := math.Lgamma(float64(k) + 1)
	return lg
}

// poissonLogPMFLg is PoissonLogPMF with lg = lgammaCount(k) supplied by
// the caller.
func poissonLogPMFLg(k int, lambda, lg float64) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if lambda <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return float64(k)*math.Log(lambda) - lambda - lg
}

// zipLogPMFLg returns the log probability mass of a zero-inflated
// Poisson with structural-zero probability pi and Poisson mean lambda,
// with lg = lgammaCount(k) supplied by the caller.
func zipLogPMFLg(k int, pi, lambda, lg float64) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if k == 0 {
		return math.Log(pi + (1-pi)*math.Exp(-lambda))
	}
	return math.Log1p(-pi) + poissonLogPMFLg(k, lambda, lg)
}

// regularizedGammaP computes P(a, x), the regularised lower incomplete
// gamma function, via the series expansion for x < a+1 and the continued
// fraction otherwise (Numerical Recipes gammp).
func regularizedGammaP(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaContinuedFraction(a, x)
	}
}

func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-14 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareCDF returns P(X <= x) for X ~ chi-square with df degrees of
// freedom.
func ChiSquareCDF(x float64, df int) float64 {
	if x <= 0 {
		return 0
	}
	return regularizedGammaP(float64(df)/2, x/2)
}

// ChiSquarePValue returns the upper-tail p-value P(X > x).
func ChiSquarePValue(x float64, df int) float64 {
	return 1 - ChiSquareCDF(x, df)
}
