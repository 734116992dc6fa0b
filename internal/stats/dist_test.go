package stats

import (
	"math"
	"testing"
)

func TestNormalCDFKnown(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{3, 0.998650101968},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEq(got, c.want, 1e-8) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPValueTwoSided(t *testing.T) {
	if p := PValueTwoSided(1.959963985); !almostEq(p, 0.05, 1e-6) {
		t.Errorf("p(1.96) = %v", p)
	}
	if p := PValueTwoSided(0); !almostEq(p, 1, 1e-12) {
		t.Errorf("p(0) = %v", p)
	}
}

func TestSignificanceStars(t *testing.T) {
	cases := []struct {
		p    float64
		want string
	}{
		{0.0001, "***"}, {0.005, "**"}, {0.03, "*"}, {0.2, ""},
	}
	for _, c := range cases {
		if got := SignificanceStars(c.p); got != c.want {
			t.Errorf("stars(%v) = %q, want %q", c.p, got, c.want)
		}
	}
}

// poissonPMF and zipLogPMF evaluate the shipped log-PMF kernels as the
// model fits call them.
func poissonPMF(k int, lambda float64) float64 { return math.Exp(PoissonLogPMF(k, lambda)) }

func zipLogPMF(k int, pi, lambda float64) float64 {
	return zipLogPMFLg(k, pi, lambda, lgammaCount(k))
}

func TestPoissonPMF(t *testing.T) {
	// Poisson(2): P(0)=e^-2, P(2)=2e^-2.
	if got := poissonPMF(0, 2); !almostEq(got, math.Exp(-2), 1e-12) {
		t.Errorf("P(0;2) = %v", got)
	}
	if got := poissonPMF(2, 2); !almostEq(got, 2*math.Exp(-2), 1e-12) {
		t.Errorf("P(2;2) = %v", got)
	}
	if got := poissonPMF(-1, 2); got != 0 {
		t.Errorf("P(-1;2) = %v", got)
	}
	// Degenerate lambda.
	if got := poissonPMF(0, 0); got != 1 {
		t.Errorf("P(0;0) = %v", got)
	}
	if got := poissonPMF(3, 0); got != 0 {
		t.Errorf("P(3;0) = %v", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.3, 1, 5, 20} {
		s := 0.0
		for k := 0; k < 200; k++ {
			s += poissonPMF(k, lambda)
		}
		if !almostEq(s, 1, 1e-9) {
			t.Errorf("Poisson(%v) pmf sums to %v", lambda, s)
		}
	}
}

func TestZIPLogPMF(t *testing.T) {
	// pi=0 reduces to plain Poisson.
	if got, want := zipLogPMF(3, 0, 2), PoissonLogPMF(3, 2); !almostEq(got, want, 1e-12) {
		t.Errorf("ZIP(pi=0) = %v, want %v", got, want)
	}
	// pi=0.5, lambda=2: P(0) = 0.5 + 0.5 e^-2.
	want := math.Log(0.5 + 0.5*math.Exp(-2))
	if got := zipLogPMF(0, 0.5, 2); !almostEq(got, want, 1e-12) {
		t.Errorf("ZIP P(0) = %v, want %v", got, want)
	}
}

func TestZIPPMFSumsToOne(t *testing.T) {
	for _, pi := range []float64{0.1, 0.5, 0.9} {
		s := 0.0
		for k := 0; k < 200; k++ {
			s += math.Exp(zipLogPMF(k, pi, 4))
		}
		if !almostEq(s, 1, 1e-9) {
			t.Errorf("ZIP(pi=%v) sums to %v", pi, s)
		}
	}
}

func TestChiSquareCDFKnown(t *testing.T) {
	// chi2(1): P(X <= 3.841) ≈ 0.95; chi2(5): P(X <= 11.07) ≈ 0.95.
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841459, 1, 0.95},
		{11.0705, 5, 0.95},
		{0, 3, 0},
	}
	for _, c := range cases {
		if got := ChiSquareCDF(c.x, c.df); !almostEq(got, c.want, 1e-4) {
			t.Errorf("ChiSquareCDF(%v, %d) = %v, want %v", c.x, c.df, got, c.want)
		}
	}
}

func TestChiSquareCDFMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x < 30; x += 0.5 {
		v := ChiSquareCDF(x, 4)
		if v < prev {
			t.Fatalf("CDF not monotone at x=%v", x)
		}
		prev = v
	}
	if !almostEq(ChiSquareCDF(1000, 4), 1, 1e-9) {
		t.Error("CDF does not reach 1")
	}
}

func TestChiSquarePValue(t *testing.T) {
	if p := ChiSquarePValue(3.841459, 1); !almostEq(p, 0.05, 1e-4) {
		t.Errorf("p = %v", p)
	}
}
