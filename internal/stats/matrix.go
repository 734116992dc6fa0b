package stats

import (
	"fmt"
	"math"
)

// Matrix is a small dense row-major matrix used by the regression kernels.
// It is deliberately minimal: the design matrices in this repository have at
// most a dozen columns, so numeric robustness (Cholesky with ridge fallback)
// matters far more than BLAS-grade speed.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("stats: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// XtWX computes Xᵀ·diag(w)·X, the weighted Gram matrix at the heart of
// every IRLS iteration. w may be nil for unit weights. Each entry sums
// its row contributions in row order, four rows per load and store of
// the entry. Zero weights and zero design entries are not skipped: for
// finite inputs their ±0 terms leave every entry bit-identical, because
// the entries start at +0 and round-to-nearest addition never turns +0
// into −0.
func XtWX(x *Matrix, w []float64) *Matrix {
	out := NewMatrix(x.Cols, x.Cols)
	xtwxInto(out, x, w)
	return out
}

// xtwxInto is XtWX writing into the x.Cols×x.Cols matrix out.
func xtwxInto(out, x *Matrix, w []float64) {
	p := x.Cols
	clear(out.Data)
	weight := func(i int) float64 {
		if w == nil {
			return 1
		}
		return w[i]
	}
	i := 0
	for ; i+4 <= x.Rows; i += 4 {
		x0, x1, x2, x3 := x.Row(i), x.Row(i+1), x.Row(i+2), x.Row(i+3)
		w0, w1, w2, w3 := weight(i), weight(i+1), weight(i+2), weight(i+3)
		for a := 0; a < p; a++ {
			r0, r1, r2, r3 := w0*x0[a], w1*x1[a], w2*x2[a], w3*x3[a]
			// The upper triangle of output row a takes the rows' tails
			// from column a; equal-length reslices let the compiler drop
			// bounds checks.
			dst := out.Data[a*p+a : a*p+p]
			t0, t1, t2, t3 := x0[a:], x1[a:], x2[a:], x3[a:]
			t0, t1, t2, t3 = t0[:len(dst)], t1[:len(dst)], t2[:len(dst)], t3[:len(dst)]
			for b := range dst {
				dst[b] = dst[b] + r0*t0[b] + r1*t1[b] + r2*t2[b] + r3*t3[b]
			}
		}
	}
	for ; i < x.Rows; i++ {
		row := x.Row(i)
		wi := weight(i)
		for a := 0; a < p; a++ {
			ra := wi * row[a]
			dst := out.Data[a*p+a : a*p+p]
			tail := row[a:]
			tail = tail[:len(dst)]
			for b, xb := range tail {
				dst[b] += ra * xb
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := 0; b < a; b++ {
			out.Data[a*p+b] = out.Data[b*p+a]
		}
	}
}

// XtWz computes Xᵀ·diag(w)·z. w may be nil for unit weights.
func XtWz(x *Matrix, w, z []float64) []float64 {
	out := make([]float64, x.Cols)
	xtwzInto(out, x, w, z)
	return out
}

// xtwzInto is XtWz writing into out, of length x.Cols.
func xtwzInto(out []float64, x *Matrix, w, z []float64) {
	clear(out)
	for i := 0; i < x.Rows; i++ {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		wz := wi * z[i]
		if wz == 0 {
			continue
		}
		row := x.Row(i)
		row = row[:len(out)]
		for a, xa := range row {
			out[a] += xa * wz
		}
	}
}

// Cholesky factors a symmetric positive-definite matrix as L·Lᵀ, returning
// the lower-triangular factor. It returns an error when the matrix is not
// positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Rows)
	if err := choleskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto is Cholesky writing the factor's lower triangle into l, of
// a's size; the upper triangle is left as it was, and no solve reads it.
func choleskyInto(l, a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("stats: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return fmt.Errorf("stats: matrix not positive definite (pivot %d = %g)", i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return nil
}

// SolveSPD solves A·x = b for symmetric positive-definite A via Cholesky.
// If A is singular or indefinite it retries with an escalating ridge term
// (A + εI); regression callers rely on this to survive collinear designs.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	x := make([]float64, a.Rows)
	if err := solveSPDInto(x, a, b, newSPDWork(a.Rows)); err != nil {
		return nil, err
	}
	return x, nil
}

// spdWork is the scratch of solveSPDInto for one matrix size: the
// Cholesky factor, the ridged copy of the matrix (made on first need) and
// the forward-substitution vector.
type spdWork struct {
	l, ridged *Matrix
	y         []float64
}

func newSPDWork(n int) *spdWork {
	return &spdWork{l: NewMatrix(n, n), y: make([]float64, n)}
}

// solveSPDInto is SolveSPD writing the solution into x, with its scratch
// in ws.
func solveSPDInto(x []float64, a *Matrix, b []float64, ws *spdWork) error {
	ridge := 0.0
	// Scale the ridge to the matrix magnitude so it is meaningful for both
	// tiny and huge Gram matrices.
	maxDiag := 0.0
	for i := 0; i < a.Rows; i++ {
		if d := math.Abs(a.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	if maxDiag == 0 {
		maxDiag = 1
	}
	for attempt := 0; attempt < 8; attempt++ {
		work := a
		if ridge > 0 {
			if ws.ridged == nil {
				ws.ridged = NewMatrix(a.Rows, a.Cols)
			}
			work = ws.ridged
			copy(work.Data, a.Data)
			for i := 0; i < a.Rows; i++ {
				work.Set(i, i, work.At(i, i)+ridge)
			}
		}
		if err := choleskyInto(ws.l, work); err != nil {
			if ridge == 0 {
				ridge = 1e-10 * maxDiag
			} else {
				ridge *= 100
			}
			continue
		}
		choleskySolveInto(x, ws.l, b, ws.y)
		return nil
	}
	return fmt.Errorf("stats: SolveSPD failed even with ridge %g", ridge)
}

func choleskySolve(l *Matrix, b []float64) []float64 {
	x := make([]float64, l.Rows)
	choleskySolveInto(x, l, b, make([]float64, l.Rows))
	return x
}

// choleskySolveInto solves L·Lᵀ·x = b into x, with y, of length l.Rows,
// for the forward substitution.
func choleskySolveInto(x []float64, l *Matrix, b, y []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// InvertSPD inverts a symmetric positive-definite matrix, with the same
// ridge fallback as SolveSPD. Used for coefficient covariance matrices.
func InvertSPD(a *Matrix) (*Matrix, error) {
	n := a.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := SolveSPD(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
