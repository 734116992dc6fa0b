package stats

import (
	"math"
	"testing"

	"turnup/internal/rng"
)

// matrixFromRows builds a matrix from a slice of equal-length rows.
func matrixFromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := matrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %v", m.At(1, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed")
	}
	if r := m.Row(2); r[0] != 5 || r[1] != 6 {
		t.Errorf("Row(2) = %v", r)
	}
}

func TestXtWX(t *testing.T) {
	x := matrixFromRows([][]float64{{1, 2}, {3, 4}})
	// Unit weights: X'X = [[10,14],[14,20]].
	g := XtWX(x, nil)
	want := [][]float64{{10, 14}, {14, 20}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(g.At(i, j), want[i][j], 1e-12) {
				t.Errorf("XtWX(%d,%d) = %v, want %v", i, j, g.At(i, j), want[i][j])
			}
		}
	}
	// Weighted: w = [2, 0] keeps only the first row's contribution, doubled.
	gw := XtWX(x, []float64{2, 0})
	wantW := [][]float64{{2, 4}, {4, 8}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(gw.At(i, j), wantW[i][j], 1e-12) {
				t.Errorf("weighted XtWX(%d,%d) = %v", i, j, gw.At(i, j))
			}
		}
	}
}

func TestXtWz(t *testing.T) {
	x := matrixFromRows([][]float64{{1, 2}, {3, 4}})
	out := XtWz(x, nil, []float64{1, 1})
	if out[0] != 4 || out[1] != 6 {
		t.Errorf("XtWz = %v", out)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := matrixFromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L = [[2,0],[1,sqrt(2)]]
	if !almostEq(l.At(0, 0), 2, 1e-12) || !almostEq(l.At(1, 0), 1, 1e-12) ||
		!almostEq(l.At(1, 1), math.Sqrt2, 1e-12) {
		t.Errorf("L = %v", l.Data)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := matrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestSolveSPDRoundTrip(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := src.Intn(6) + 2
		// Build SPD A = B'B + I.
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = src.Norm()
		}
		a := XtWX(b, nil)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = src.Norm()
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = Dot(a.Row(i), xTrue)
		}
		x, err := SolveSPD(a, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestSolveSPDSingularFallback(t *testing.T) {
	// Rank-1 Gram matrix: exact solve impossible, ridge fallback must not error.
	a := matrixFromRows([][]float64{{1, 1}, {1, 1}})
	x, err := SolveSPD(a, []float64{2, 2})
	if err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
	// Solution should approximately satisfy Ax = b in the least-squares sense.
	r0 := x[0] + x[1]
	if math.Abs(r0-2) > 1e-3 {
		t.Errorf("ridge solution residual: %v", r0)
	}
}

func TestInvertSPD(t *testing.T) {
	a := matrixFromRows([][]float64{{4, 2}, {2, 3}})
	inv, err := InvertSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	// A * A^-1 = I.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s := 0.0
			for k := 0; k < 2; k++ {
				s += a.At(i, k) * inv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(s, want, 1e-10) {
				t.Errorf("(A·A⁻¹)[%d][%d] = %v", i, j, s)
			}
		}
	}
}

func TestDot(t *testing.T) {
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Errorf("Dot = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Dot did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
