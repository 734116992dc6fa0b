package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	parent2 := New(7)
	_ = parent2.Uint64() // Fork consumes one parent output.
	c2 := parent2.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forks with different labels produced identical first output")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n < 50; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	// Chi-square test with generous threshold (df=9, p=0.001 crit ~27.9).
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("Intn uniformity chi2 = %v", chi2)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(17)
	for _, lambda := range []float64{0.5, 3, 12, 45, 200} {
		const n = 50000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(r.Poisson(lambda))
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.1 {
			t.Errorf("Poisson(%v) variance = %v", lambda, variance)
		}
	}
}

func TestPoissonEdge(t *testing.T) {
	r := New(19)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-1); got != 0 {
		t.Fatalf("Poisson(-1) = %d", got)
	}
}

func TestExpMean(t *testing.T) {
	r := New(31)
	const rate, n = 2.5, 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%v) mean = %v, want %v", rate, mean, 1/rate)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(37)
	const mu, sigma, n = 1.2, 0.8, 50001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(mu, sigma)
	}
	// Median of log-normal is exp(mu); use a counting check.
	below := 0
	med := math.Exp(mu)
	for _, v := range vals {
		if v < med {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestCategorical(t *testing.T) {
	r := New(47)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("category ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := New(53)
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			r.Categorical(w)
		}()
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(59)
	const p, n = 0.25, 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.06 {
		t.Fatalf("geometric mean = %v, want %v", mean, want)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		n := int(seed%20) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64HighLowBits(t *testing.T) {
	// Both halves of the output should look random (catch rotl mistakes).
	r := New(61)
	var hiOnes, loOnes int
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Uint64()
		if v>>63 == 1 {
			hiOnes++
		}
		if v&1 == 1 {
			loOnes++
		}
	}
	for name, ones := range map[string]int{"high": hiOnes, "low": loOnes} {
		frac := float64(ones) / n
		if math.Abs(frac-0.5) > 0.03 {
			t.Errorf("%s bit fraction = %v", name, frac)
		}
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Poisson(4)
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Poisson(400)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestGeometricPanicsAndEdge(t *testing.T) {
	if got := New(1).Geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestBoolFrequency(t *testing.T) {
	r := New(67)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(73)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("duplicate after shuffle: %v", xs)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}
