package stats

import (
	"fmt"
	"math"
	"sort"
)

// PowerLawFit is a fitted discrete power law P(X = x) = x^(-Alpha)/ζ(Alpha, XMin)
// for x >= XMin, with the Kolmogorov-Smirnov distance between the empirical
// and fitted CDFs on the tail.
type PowerLawFit struct {
	Alpha float64
	XMin  int
	NTail int     // observations >= XMin
	KS    float64 // KS distance on the tail
}

// hurwitzZeta computes ζ(s, a) = Σ_{k=0..∞} (a+k)^-s for s > 1, a > 0,
// by direct summation of the head plus an Euler-Maclaurin tail correction.
func hurwitzZeta(s, a float64) float64 {
	const head = 64
	sum := 0.0
	for k := 0; k < head; k++ {
		sum += math.Pow(a+float64(k), -s)
	}
	// Tail from x = a+head: ∫ x^-s dx + x^-s/2 + s·x^-(s+1)/12.
	x := a + head
	sum += math.Pow(x, 1-s)/(s-1) + math.Pow(x, -s)/2 + s*math.Pow(x, -s-1)/12
	return sum
}

// FitPowerLaw estimates the exponent of a discrete power law on the tail
// x >= xmin by exact maximum likelihood: it maximises
// -alpha·Σ ln x_i - n·ln ζ(alpha, xmin) over alpha via golden-section
// search. This avoids the well-known bias of the continuous-approximation
// estimator at small xmin. Σ ln x_i is summed over the sorted tail, so
// the fit does not depend on the order of xs.
func FitPowerLaw(xs []int, xmin int) (*PowerLawFit, error) {
	if xmin < 1 {
		return nil, fmt.Errorf("stats: power-law xmin must be >= 1, got %d", xmin)
	}
	var tail []int
	for _, x := range xs {
		if x >= xmin {
			tail = append(tail, x)
		}
	}
	n := float64(len(tail))
	if len(tail) < 2 {
		return nil, fmt.Errorf("stats: only %d observations >= xmin=%d", len(tail), xmin)
	}
	sort.Ints(tail)
	sumLog := 0.0
	for _, x := range tail {
		sumLog += math.Log(float64(x))
	}
	negLik := func(alpha float64) float64 {
		return alpha*sumLog + n*math.Log(hurwitzZeta(alpha, float64(xmin)))
	}
	alpha := goldenMin(negLik, 1.01, 8.0, 1e-7)
	fit := &PowerLawFit{Alpha: alpha, XMin: xmin, NTail: len(tail)}
	fit.KS = powerLawKS(tail, alpha, xmin)
	return fit, nil
}

// goldenMin minimises a unimodal function on [lo, hi] by golden-section
// search to the given x tolerance.
func goldenMin(f func(float64) float64, lo, hi, tol float64) float64 {
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// powerLawKS computes the KS distance between the empirical CDF of the
// sorted tail and the exact discrete power-law CDF normalised by
// ζ(alpha, xmin).
func powerLawKS(sorted []int, alpha float64, xmin int) float64 {
	maxX := sorted[len(sorted)-1]
	z := hurwitzZeta(alpha, float64(xmin))
	ks := 0.0
	cum := 0.0
	n := float64(len(sorted))
	i := 0
	for x := xmin; x <= maxX; x++ {
		cum += math.Pow(float64(x), -alpha) / z
		for i < len(sorted) && sorted[i] <= x {
			i++
		}
		emp := float64(i) / n
		if d := math.Abs(emp - cum); d > ks {
			ks = d
		}
	}
	return ks
}

// DegreeHistogram counts occurrences of each degree value, which the
// degree-distribution figures plot. Returned map: degree → count.
func DegreeHistogram(degrees []int) map[int]int {
	h := make(map[int]int, len(degrees)/4+1)
	for _, d := range degrees {
		h[d]++
	}
	return h
}
