package stats

import (
	"math"
	"testing"

	"turnup/internal/rng"
)

// The model kernels must reproduce the reference loops in
// kernels_ref_test.go bit for bit: every comparison below is on
// math.Float64bits, not within a tolerance.

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameBit(t *testing.T, what string, got, want float64) {
	t.Helper()
	sameBits(t, what, []float64{got}, []float64{want})
}

// userMonthData mimics the LTM's observations: D sparse counts per row,
// most of them zero, with a heavy tail of busy rows.
func userMonthData(src *rng.Source, n, d int) [][]float64 {
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, d)
		busy := 0.2
		if src.Bool(0.1) {
			busy = 6
		}
		for j := range row {
			if src.Bool(0.3) {
				row[j] = float64(src.Poisson(busy * float64(j%3+1)))
			}
		}
		data[i] = row
	}
	return data
}

// repeatedRows returns n rows, each a copy of one of the given number of
// user-month rows drawn at random.
func repeatedRows(src *rng.Source, n, patterns, d int) [][]float64 {
	pool := userMonthData(src, patterns, d)
	data := make([][]float64, n)
	for i := range data {
		data[i] = append([]float64(nil), pool[src.Intn(patterns)]...)
	}
	return data
}

// distinctRows sets the first count of row i to i, so no two rows repeat.
func distinctRows(data [][]float64) [][]float64 {
	for i, row := range data {
		row[0] = float64(i)
	}
	return data
}

func TestFitLCABitExact(t *testing.T) {
	cases := []struct {
		name string
		data [][]float64
		k    int
	}{
		{"mixture-k2", func() [][]float64 {
			d, _ := mixtureData(rng.New(11), 600, []float64{0.6, 0.4}, [][]float64{{1, 8}, {10, 0.5}})
			return d
		}(), 2},
		{"user-months-k6", userMonthData(rng.New(12), 400, 10), 6},
		{"user-months-k12", userMonthData(rng.New(13), 400, 10), 12},
		{"fractional-k3", func() [][]float64 {
			d := userMonthData(rng.New(14), 300, 4)
			for _, row := range d {
				row[0] += 0.5
			}
			return d
		}(), 3},
		// The E-step runs once per distinct row: many copies of a few
		// dozen sparse rows, as in the LTM's user-months, then no repeats.
		{"repeated-patterns-k6", repeatedRows(rng.New(15), 600, 30, 10), 6},
		{"distinct-rows-k6", distinctRows(userMonthData(rng.New(16), 300, 10)), 6},
		// −0 and +0 counts are distinct patterns with the same E-step.
		{"negative-zero-k4", func() [][]float64 {
			base := userMonthData(rng.New(17), 200, 6)
			var d [][]float64
			for i, row := range base {
				d = append(d, row)
				if i%2 == 0 {
					neg := make([]float64, len(row))
					for j, v := range row {
						if v == 0 {
							v = math.Copysign(0, -1)
						}
						neg[j] = v
					}
					d = append(d, neg)
				}
			}
			return d
		}(), 4},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			got, err := FitLCA(c.data, c.k, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err := refFitLCA(c.data, c.k, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if got.Iters != want.Iters || got.Converged != want.Converged {
				t.Fatalf("%s/%d: iters %d converged %v, want %d %v", c.name, seed,
					got.Iters, got.Converged, want.Iters, want.Converged)
			}
			sameBit(t, c.name+" LogLik", got.LogLik, want.LogLik)
			sameBit(t, c.name+" AIC", got.AIC, want.AIC)
			sameBit(t, c.name+" BIC", got.BIC, want.BIC)
			sameBits(t, c.name+" Weights", got.Weights, want.Weights)
			for cl := range want.Rates {
				sameBits(t, c.name+" Rates", got.Rates[cl], want.Rates[cl])
			}
			for i := range want.Posterior {
				sameBits(t, c.name+" Posterior", got.Posterior[i], want.Posterior[i])
				if got.Assignment[i] != want.Assignment[i] {
					t.Fatalf("%s: Assignment[%d] = %d, want %d", c.name, i, got.Assignment[i], want.Assignment[i])
				}
			}
		}
	}
}

// sameFit compares an IRLS coefficient path with its reference.
func sameFit(t *testing.T, what string, got, want irlsFit) {
	t.Helper()
	if got.iters != want.iters || got.converged != want.converged {
		t.Fatalf("%s: iters %d converged %v, want %d %v", what,
			got.iters, got.converged, want.iters, want.converged)
	}
	sameBits(t, what+" coef", got.coef, want.coef)
}

// randomDesign returns an n×p design with an intercept column and
// standard-normal covariates.
func randomDesign(src *rng.Source, n, p int) *Matrix {
	x := NewMatrix(n, p)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		for j := 1; j < p; j++ {
			x.Set(i, j, src.Norm())
		}
	}
	return x
}

func TestPoissonRegressionBitExact(t *testing.T) {
	src := rng.New(21)
	x := randomDesign(src, 700, 6)
	beta := []float64{0.3, 0.4, -0.2, 0.1, 0, 0.25}
	y := make([]float64, x.Rows)
	for i := range y {
		y[i] = float64(src.Poisson(math.Exp(Dot(x.Row(i), beta))))
	}
	// Fractional prior weights with exact zeros, as the ZIP M-step passes.
	w := make([]float64, len(y))
	for i := range w {
		if !src.Bool(0.2) {
			w[i] = src.Float64()
		}
	}
	for _, weights := range [][]float64{nil, w} {
		got, err := poissonFit(x, y, weights)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refPoissonRegression(x, y, weights)
		if err != nil {
			t.Fatal(err)
		}
		sameFit(t, "poisson", got, want)
	}
}

func TestLogisticRegressionBitExact(t *testing.T) {
	src := rng.New(31)
	x := randomDesign(src, 800, 5)
	gamma := []float64{-0.4, 0.9, -0.5, 0.2, 0}
	binary := make([]float64, x.Rows)
	frac := make([]float64, x.Rows)
	for i := range binary {
		p := 1 / (1 + math.Exp(-Dot(x.Row(i), gamma)))
		if src.Bool(p) {
			binary[i] = 1
		}
		frac[i] = p * src.Float64()
	}
	// A quasi-separated zero-model M-step, shaped like the ZIP zero
	// designs that run into the iteration cap: any dispute drives the
	// response to within 1e-8 of zero, first-time users carry most of the
	// mass, and length is on a scale of hundreds of days. Newton never
	// meets its stop test here.
	capSrc := rng.New(1)
	sep := NewMatrix(200, 4)
	sepY := make([]float64, sep.Rows)
	for i := range sepY {
		d := math.Sqrt(float64(capSrc.Poisson(0.3)))
		ft := 0.0
		if capSrc.Bool(0.3) {
			ft = 1
		}
		length := 300 + 1000*capSrc.Float64()
		if ft == 1 {
			length = 360 + 15*capSrc.Float64()
		}
		sep.Set(i, 0, 1)
		sep.Set(i, 1, d)
		sep.Set(i, 2, ft)
		sep.Set(i, 3, length)
		switch {
		case d > 0:
			if capSrc.Bool(0.5) {
				sepY[i] = math.Exp(-20 - 10*capSrc.Float64())
			}
		case ft == 1:
			sepY[i] = 0.35 + 0.15*capSrc.Float64()
		default:
			if capSrc.Bool(0.1) {
				sepY[i] = 4e-6 / length
			}
		}
	}
	for _, c := range []struct {
		name string
		x    *Matrix
		y    []float64
		max  bool
	}{
		{"binary", x, binary, false},
		{"fractional", x, frac, false},
		{"quasi-separated", sep, sepY, true},
	} {
		got, err := logisticFit(c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refLogisticRegression(c.x, c.y, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.max && want.iters != glmMaxIter {
			t.Fatalf("%s: reference stopped at %d iterations, want the cap %d", c.name, want.iters, glmMaxIter)
		}
		sameFit(t, "logistic "+c.name, got, want)
	}
}

// eraModelData mimics the era models' designs (internal/analysis
// fitZIP): an intercept, square roots of per-user counts that are
// nonzero for about three users in four, a first-time 0/1 flag and a
// length in days in both blocks; the response is completed contracts.
func eraModelData(src *rng.Source, n int) (countX *Matrix, y []float64, zeroX *Matrix) {
	countX = NewMatrix(n, 9)
	zeroX = NewMatrix(n, 5)
	y = make([]float64, n)
	sqrtCount := func(mean float64) float64 {
		if !src.Bool(0.75) {
			return 0
		}
		return math.Sqrt(float64(1 + src.Poisson(mean)))
	}
	for i := 0; i < n; i++ {
		disputes, neg := sqrtCount(0.5), sqrtCount(0.8)
		ft := 0.0
		if src.Bool(0.3) {
			ft = 1
		}
		length := float64(1 + src.Intn(600))
		for j, v := range []float64{1, disputes, sqrtCount(4), neg, sqrtCount(6), sqrtCount(3), sqrtCount(3), ft, length} {
			countX.Set(i, j, v)
		}
		for j, v := range []float64{1, disputes, neg, ft, length} {
			zeroX.Set(i, j, v)
		}
		mu := math.Exp(0.1 + 0.3*countX.At(i, 5) + 0.2*countX.At(i, 6) + 0.1*countX.At(i, 2) - 0.4*ft + 0.001*length)
		pi := 1 / (1 + math.Exp(-(-0.8 + 0.6*disputes + 0.9*ft - 0.002*length)))
		if !src.Bool(pi) {
			y[i] = float64(src.Poisson(mu))
		}
	}
	return countX, y, zeroX
}

// zipTestDesign is a ZIP design for the kernel tests.
type zipTestDesign struct {
	name          string
	countX, zeroX *Matrix
	y             []float64
}

// zipTestDesigns returns two simulated designs, one of them zero-heavy
// (87% of responses are zero), and an era-model design (p=9, q=5).
func zipTestDesigns() []zipTestDesign {
	var out []zipTestDesign
	for _, c := range []struct {
		name        string
		seed        uint64
		beta, gamma []float64
	}{
		{"moderate", 41, []float64{1.0, 0.5, -0.3}, []float64{-0.5, 0.8}},
		{"zero-heavy", 42, []float64{0.2, 0.4, 0.1, -0.2}, []float64{1.8, 0.6, -0.4}},
	} {
		countX, y, zeroX := simulateZIP(rng.New(c.seed), 900, c.beta, c.gamma)
		out = append(out, zipTestDesign{c.name, countX, zeroX, y})
	}
	countX, y, zeroX := eraModelData(rng.New(43), 700)
	return append(out, zipTestDesign{"era-model", countX, zeroX, y})
}

// TestZIPStdErrsBitExact checks, at each design's fitted optimum, the
// log-likelihood against its untabulated reference bit for bit, and the
// standard errors, taken from the analytic information (which
// TestZIPStdErrsMatchAnalyticInformation holds bit for bit), against the
// reference numerical Hessian's. Every coefficient of these designs is
// identified. They must agree to 1e-4 relative on the simulated designs
// but only 1e-3 on the era-model design: the numerical Hessian steps each
// coefficient by 1e-4·(|θ|+0.01), about 1e-6 for the near-zero ones,
// where the log-likelihood's rounding leaves Hessian entries with
// relative errors up to 1e-5, and the inverse of this less
// well-conditioned matrix amplifies them.
func TestZIPStdErrsBitExact(t *testing.T) {
	for _, c := range zipTestDesigns() {
		countX, y, zeroX := c.countX, c.y, c.zeroX
		res, err := ZIPRegression(countX, y, zeroX, make([]string, countX.Cols), make([]string, zeroX.Cols))
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range res.Zero.Identified {
			if !id {
				t.Fatalf("%s: zero coefficient %d not identified", c.name, j)
			}
		}
		beta, gamma := res.Count.Coef, res.Zero.Coef
		zd := newZIPData(countX, y, zeroX)
		sameBit(t, c.name+" logLik", zd.logLik(beta, gamma), refZIPLogLik(countX, y, zeroX, beta, gamma))

		got := append(append([]float64(nil), res.Count.StdErr...), res.Zero.StdErr...)
		numerical, err := refZIPStdErrs(countX, y, zeroX, beta, gamma)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-4
		if c.name == "era-model" {
			tol = 1e-3
		}
		for j, want := range numerical {
			if math.Abs(got[j]-want) > tol*want {
				t.Errorf("%s: se[%d] = %.9g, numerical %.9g", c.name, j, got[j], want)
			}
		}
	}
}

// TestZIPEMBitExact runs ZIPRegression's starting Poisson fit and EM
// beside refZIPWarmEM, whose IRLS recomputes every mean from the
// coefficients, and requires the same coefficients bit for bit and the
// same EM and IRLS iteration counts. It covers the kernel designs, a
// design whose third zero column separates the data, and each design's
// intercept-only null model.
func TestZIPEMBitExact(t *testing.T) {
	designs := zipTestDesigns()
	src := rng.New(239)
	countX, y, zeroX := simulateZIP(src, 3000, []float64{1.0, 0.4}, []float64{-0.3, 0.7, 0})
	for i := range y {
		zeroX.Set(i, 2, 0)
		if y[i] > 0 && src.Bool(0.5) {
			zeroX.Set(i, 2, 1+src.Float64())
		}
	}
	designs = append(designs, zipTestDesign{"separated", countX, zeroX, y})
	for _, c := range designs {
		ones := NewMatrix(len(c.y), 1)
		for i := range c.y {
			ones.Set(i, 0, 1)
		}
		if _, err := CompareZIPEM(c.countX, c.y, c.zeroX); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if _, err := CompareZIPEM(ones, c.y, ones); err != nil {
			t.Errorf("%s null model: %v", c.name, err)
		}
	}
}

func TestXtWXBitExact(t *testing.T) {
	src := rng.New(51)
	negZero := math.Copysign(0, -1)
	// Row counts cover every remainder of the four-row blocks, and rows
	// fewer than one block. Exact zeros (of both signs) in the weights and
	// the design, and a zero-heavy column, pin that the kernel's unskipped
	// ±0 terms leave every entry as the reference's skips do.
	for _, n := range []int{1, 2, 3, 4, 5, 300, 301, 302, 303} {
		for _, p := range []int{1, 2, 4, 5, 8, 9} {
			x := randomDesign(src, n, p)
			for i := 0; i < x.Rows; i += 7 {
				x.Set(i, p/2, 0)
			}
			for i := 3; i < x.Rows; i += 11 {
				x.Set(i, p-1, negZero)
			}
			if p > 2 {
				for i := 0; i < x.Rows; i++ {
					v := 0.0
					if src.Bool(0.2) {
						v = math.Sqrt(float64(1 + src.Poisson(2)))
					}
					x.Set(i, 1, v)
				}
			}
			w := make([]float64, x.Rows)
			for i := range w {
				switch {
				case i%5 == 0:
				case i%13 == 1:
					w[i] = negZero
				default:
					w[i] = src.Float64()
				}
			}
			for _, weights := range [][]float64{nil, w} {
				sameBits(t, "XtWX", XtWX(x, weights).Data, refXtWX(x, weights).Data)
				sameBits(t, "XtWz", XtWz(x, weights, w), refXtWz(x, weights, w))
			}
		}
	}
}

func BenchmarkFitLCA(b *testing.B) {
	data := userMonthData(rng.New(61), 600, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitLCA(data, 12, rng.New(uint64(i%4)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitLCADistinct is BenchmarkFitLCA with no repeated row: the
// per-pattern E-step then does one pattern's work per row.
func BenchmarkFitLCADistinct(b *testing.B) {
	data := distinctRows(userMonthData(rng.New(61), 600, 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitLCA(data, 12, rng.New(uint64(i%4)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZIPRegression(b *testing.B) {
	countX, y, zeroX := simulateZIP(rng.New(62), 1500,
		[]float64{0.5, 0.3, -0.2, 0.1, 0.2, -0.1, 0.05, 0.15}, []float64{1.0, 0.5, -0.3, 0.2, 0.1})
	cn := make([]string, countX.Cols)
	zn := make([]string, zeroX.Cols)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ZIPRegression(countX, y, zeroX, cn, zn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXtWX(b *testing.B) {
	src := rng.New(63)
	x := randomDesign(src, 800, 9)
	w := make([]float64, x.Rows)
	for i := range w {
		w[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gramSink = XtWX(x, w)
	}
}

var gramSink *Matrix
