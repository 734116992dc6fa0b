// Package stats is a from-scratch, stdlib-only statistics library providing
// the estimators the paper's analyses require: descriptive statistics,
// zero-inflated Poisson regression (EM over Poisson and logistic IRLS
// steps) with Vuong model comparison, k-means++ clustering, Poisson
// mixture (latent class) models with AIC/BIC selection, latent transition
// summaries, and discrete power-law fitting.
//
// Go has no canonical statistics ecosystem; this package is the substrate
// substitution called out in DESIGN.md. Every estimator is deterministic
// given an explicit *rng.Source and is validated in tests against
// analytically known cases and parameter-recovery simulations.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or 0 if len < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the sample median (average of middle two for even n),
// or 0 for empty input.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th sample quantile (0 <= q <= 1) using linear
// interpolation between order statistics (type-7, the R default).
// It returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Standardize returns (xs - mean) / sd columnwise-for-a-vector. When the
// standard deviation is zero the centred values are returned unscaled.
func Standardize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m := Mean(xs)
	sd := StdDev(xs)
	for i, x := range xs {
		if sd > 0 {
			out[i] = (x - m) / sd
		} else {
			out[i] = x - m
		}
	}
	return out
}

// ShareOfTop returns the fraction of total mass held by the top q fraction
// of items (q in (0,1]), e.g. ShareOfTop(w, 0.05) for "top 5% of users".
func ShareOfTop(weights []float64, q float64) float64 {
	n := len(weights)
	if n == 0 || q <= 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, weights)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	k := int(math.Ceil(q * float64(n)))
	if k > n {
		k = n
	}
	total := Sum(sorted)
	if total == 0 {
		return 0
	}
	return Sum(sorted[:k]) / total
}

// Gini returns the Gini coefficient of the weights (0 = perfectly equal,
// →1 = fully concentrated). Negative weights are not supported.
func Gini(weights []float64) float64 {
	n := len(weights)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, weights)
	sort.Float64s(sorted)
	total := Sum(sorted)
	if total == 0 {
		return 0
	}
	cum := 0.0
	for i, w := range sorted {
		cum += float64(i+1) * w
	}
	nf := float64(n)
	return (2*cum)/(nf*total) - (nf+1)/nf
}
