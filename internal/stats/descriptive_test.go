package stats

import (
	"math"
	"testing"
	"testing/quick"

	"turnup/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Sample variance of this classic set is 32/7.
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-input descriptive stats should be 0")
	}
}

func TestMedianEvenOdd(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); !almostEq(m, 2, 1e-12) {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); !almostEq(m, 2.5, 1e-12) {
		t.Errorf("even median = %v", m)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestStandardize(t *testing.T) {
	out := Standardize([]float64{1, 2, 3, 4, 5})
	if !almostEq(Mean(out), 0, 1e-12) {
		t.Errorf("standardized mean = %v", Mean(out))
	}
	if !almostEq(StdDev(out), 1, 1e-12) {
		t.Errorf("standardized sd = %v", StdDev(out))
	}
	// Constant input: centred but not scaled, no NaNs.
	for _, v := range Standardize([]float64{7, 7, 7}) {
		if v != 0 {
			t.Errorf("constant standardize produced %v", v)
		}
	}
}

func TestLorenzAndShareOfTop(t *testing.T) {
	// One user holds 70 of 100 total; top 25% (1 of 4) must hold 70%.
	w := []float64{70, 10, 10, 10}
	if s := ShareOfTop(w, 0.25); !almostEq(s, 0.7, 1e-12) {
		t.Errorf("ShareOfTop = %v, want 0.7", s)
	}
	// The Lorenz-style share curve is monotone non-decreasing in q and
	// reaches the whole mass at q = 1.
	prev := 0.0
	for _, q := range []float64{0.25, 0.5, 0.75, 1} {
		s := ShareOfTop(w, q)
		if s < prev-1e-12 {
			t.Fatalf("ShareOfTop(%v) = %v below the share at a smaller q", q, s)
		}
		prev = s
	}
	if !almostEq(prev, 1, 1e-12) {
		t.Errorf("ShareOfTop(w, 1) = %v, want 1", prev)
	}
}

func TestGiniBounds(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); !almostEq(g, 0, 1e-9) {
		t.Errorf("equal Gini = %v", g)
	}
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 || g > 1 {
		t.Errorf("concentrated Gini = %v", g)
	}
}

func TestGiniShareProperties(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		n := src.Intn(50) + 2
		w := make([]float64, n)
		for i := range w {
			w[i] = src.Float64() * 100
		}
		g := Gini(w)
		s := ShareOfTop(w, 0.5)
		return g >= -1e-9 && g <= 1 && s >= 0.5-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
