// Package linalg provides the dense linear-algebra substrate used by the
// compression methods: row-major matrices, basic vector operations, one
// direct eigensolver for symmetric matrices (Householder tridiagonalization
// + implicit QL), and a thin SVD built on top of the eigendecomposition of
// XᵀX (Lemma 3.2 of the paper).
//
// Everything here is deliberately self-contained (standard library only) and
// sized for the paper's regime: N may be large (millions of rows, streamed
// elsewhere), but M — the sequence length — is at most a few hundred, so
// O(M³) eigen routines are perfectly adequate.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Data is stored in a single backing
// slice so whole rows can be handed to IO layers without copying.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a rows×cols matrix that wraps data (row-major, not
// copied). It panics if len(data) != rows*cols.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d does not match %d×%d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// FromRows builds a matrix by copying the given rows. All rows must have the
// same length. An empty input yields a 0×0 matrix.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("linalg: ragged row %d: length %d, want %d", i, len(r), m.cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns the i-th row as a slice aliasing the matrix storage. Mutating
// the slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of the j-th column.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: column %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Data returns the backing row-major slice (not a copy).
func (m *Matrix) Data() []float64 { return m.data }

// AppendRow grows the matrix by one row (copied). On a 0×0 matrix the first
// append fixes the column count.
func (m *Matrix) AppendRow(row []float64) {
	if m.rows == 0 && m.cols == 0 {
		m.cols = len(row)
	}
	if len(row) != m.cols {
		panic(fmt.Sprintf("linalg: appending row of length %d to %d-column matrix", len(row), m.cols))
	}
	m.data = append(m.data, row...)
	m.rows++
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product a×b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for l, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(l)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m×v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: vector length %d does not match %d columns", len(v), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.Row(i), v)
	}
	return out
}

// Scale multiplies every element in place by s and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Add returns a+b as a new matrix.
func Add(a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("linalg: dimension mismatch %d×%d + %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewMatrix(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a−b as a new matrix.
func Sub(a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("linalg: dimension mismatch %d×%d - %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewMatrix(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(d []float64) *Matrix {
	m := NewMatrix(len(d), len(d))
	for i, v := range d {
		m.data[i*len(d)+i] = v
	}
	return m
}

// Dot returns the inner product of a and b. The loop is 4-way unrolled
// with independent partial sums, which roughly doubles throughput on the
// reconstruction hot paths (row rebuilds and the query engine's projected
// kernels dot k- and M-length vectors millions of times). The partials are
// combined pairwise, so the summation order — hence the bit pattern of the
// result — is fixed and identical wherever Dot is used.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// DotRows sets out[p] = Dot(a, panel[p·k:(p+1)·k]) for every p, k = len(a):
// the dot products of a with each row of a flat row-major len(out)×k
// panel. It computes four panel rows per pass over a, each with Dot's own
// summation order — four lane sums, (s0+s1)+(s2+s3), then the tail in
// order — so every value is bit-identical to the Dot call it replaces (a
// NaN result is NaN, its payload left to the compiler's operand order, as
// in Dot); the last len(out) mod 4 rows call Dot itself. It panics on a
// panel whose length is not len(out)·len(a), as Dot does on a length
// mismatch.
func DotRows(a, panel, out []float64) {
	k := len(a)
	if len(panel) != len(out)*k {
		panic(fmt.Sprintf("linalg: dot rows panel length %d vs %d rows of %d", len(panel), len(out), k))
	}
	p := 0
	for ; p+4 <= len(out); p += 4 {
		// Slicing each row to exactly k (and each step to exactly 4) lets
		// the compiler drop the per-element bounds checks.
		b0 := panel[p*k:][:k]
		b1 := panel[(p+1)*k:][:k]
		b2 := panel[(p+2)*k:][:k]
		b3 := panel[(p+3)*k:][:k]
		var s00, s01, s02, s03 float64
		var s10, s11, s12, s13 float64
		var s20, s21, s22, s23 float64
		var s30, s31, s32, s33 float64
		i := 0
		for ; i+4 <= k; i += 4 {
			x := a[i : i+4 : i+4]
			y0, y1, y2, y3 := b0[i:i+4:i+4], b1[i:i+4:i+4], b2[i:i+4:i+4], b3[i:i+4:i+4]
			s00 += x[0] * y0[0]
			s01 += x[1] * y0[1]
			s02 += x[2] * y0[2]
			s03 += x[3] * y0[3]
			s10 += x[0] * y1[0]
			s11 += x[1] * y1[1]
			s12 += x[2] * y1[2]
			s13 += x[3] * y1[3]
			s20 += x[0] * y2[0]
			s21 += x[1] * y2[1]
			s22 += x[2] * y2[2]
			s23 += x[3] * y2[3]
			s30 += x[0] * y3[0]
			s31 += x[1] * y3[1]
			s32 += x[2] * y3[2]
			s33 += x[3] * y3[3]
		}
		t0 := (s00 + s01) + (s02 + s03)
		t1 := (s10 + s11) + (s12 + s13)
		t2 := (s20 + s21) + (s22 + s23)
		t3 := (s30 + s31) + (s32 + s33)
		for ; i < k; i++ {
			ai := a[i]
			t0 += ai * b0[i]
			t1 += ai * b1[i]
			t2 += ai * b2[i]
			t3 += ai * b3[i]
		}
		o := out[p : p+4 : p+4]
		o[0], o[1], o[2], o[3] = t0, t1, t2, t3
	}
	for ; p < len(out); p++ {
		out[p] = Dot(a, panel[p*k:(p+1)*k])
	}
}

// Axpy accumulates y += alpha·x, 4-way unrolled like Dot. Each y element
// receives exactly one fused update, so the result is bit-identical to the
// plain loop regardless of unrolling.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// AxpyRows applies y += alpha[r]·x[r] for r = 0, 1, … in one pass over y,
// for up to four rows: y is loaded and stored once where the Axpy calls it
// replaces would stream it once per row. Each element receives the rows'
// updates in row order, each rounded on its own, so the result is
// bit-identical to calling Axpy(alpha[r], x[r], y) for every r in turn —
// the zero, one, two, three or four calls, with no zero-alpha padding that
// could turn a −0 into +0 or an infinity into NaN. It panics when alpha and x
// differ in length, when there are more than four rows, or on a row whose
// length is not len(y), as Axpy does.
func AxpyRows(alpha []float64, x [][]float64, y []float64) {
	if len(alpha) != len(x) || len(x) > 4 {
		panic(fmt.Sprintf("linalg: axpy rows with %d coefficients for %d rows (at most 4)", len(alpha), len(x)))
	}
	for _, xr := range x {
		if len(xr) != len(y) {
			panic(fmt.Sprintf("linalg: axpy rows length mismatch %d vs %d", len(xr), len(y)))
		}
	}
	// Reslicing each row to exactly len(y) lets the compiler drop the
	// per-element bounds checks; Go evaluates a + b + c left to right, so
	// every expression below is the Axpy calls' sequence of roundings.
	switch len(x) {
	case 1:
		Axpy(alpha[0], x[0], y)
	case 2:
		a0, a1 := alpha[0], alpha[1]
		x0, x1 := x[0][:len(y)], x[1][:len(y)]
		for i, v := range y {
			y[i] = v + a0*x0[i] + a1*x1[i]
		}
	case 3:
		a0, a1, a2 := alpha[0], alpha[1], alpha[2]
		x0, x1, x2 := x[0][:len(y)], x[1][:len(y)], x[2][:len(y)]
		for i, v := range y {
			y[i] = v + a0*x0[i] + a1*x1[i] + a2*x2[i]
		}
	case 4:
		a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
		x0, x1, x2, x3 := x[0][:len(y)], x[1][:len(y)], x[2][:len(y)], x[3][:len(y)]
		for i, v := range y {
			y[i] = v + a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
		}
	}
}

// Norm2 returns the Euclidean (L2) norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow for extreme values.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 { return Norm2(m.data) }

// MaxAbs returns the largest absolute element value, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Mean returns the mean of all cells; 0 for an empty matrix.
func (m *Matrix) Mean() float64 {
	if len(m.data) == 0 {
		return 0
	}
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s / float64(len(m.data))
}

// Equal reports whether a and b have identical dimensions and all elements
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// ErrNotFinite is returned when an operation encounters NaN or ±Inf input.
var ErrNotFinite = errors.New("linalg: non-finite value")

// CheckFinite returns ErrNotFinite if any element of m is NaN or infinite.
func (m *Matrix) CheckFinite() error {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrNotFinite
		}
	}
	return nil
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Matrix(%d×%d)", m.rows, m.cols)
	}
	s := ""
	for i := 0; i < m.rows; i++ {
		s += "["
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
		s += "]\n"
	}
	return s
}

// DotBounds returns an interval that holds Dot(a, v) for every v with
// lo[i] ≤ v[i] ≤ hi[i]: upper sums max(a[i]·hi[i], a[i]·lo[i]) and lower
// sums their min, each in Dot's own order — four lane sums,
// (s0+s1)+(s2+s3), then the tail in order. Round-to-nearest is monotone in
// each operand of a product and of a sum, so term by term and partial sum
// by partial sum the bound's value is at least (at most) the rounded value
// Dot computes: a finite upper is ≥ every such Dot(a, v) and no such
// Dot(a, v) is NaN, and a finite lower is ≤ every one and none is NaN, bit
// for bit, with no slack. A NaN anywhere in a, hi or lo, or an infinite a[i]
// against a zero end, makes both bounds NaN. The enclosure holds where each
// product is rounded on its own, as Dot compiles on amd64; a target that
// fuses Dot's multiply-adds may round past it. It panics on a length
// mismatch, as Dot does.
func DotBounds(a, hi, lo []float64) (upper, lower float64) {
	if len(hi) != len(a) || len(lo) != len(a) {
		panic(fmt.Sprintf("linalg: dot bounds length mismatch %d vs %d/%d", len(a), len(hi), len(lo)))
	}
	var u0, u1, u2, u3, l0, l1, l2, l3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, h, l := a[i:i+4:i+4], hi[i:i+4:i+4], lo[i:i+4:i+4]
		p0, q0 := x[0]*h[0], x[0]*l[0]
		p1, q1 := x[1]*h[1], x[1]*l[1]
		p2, q2 := x[2]*h[2], x[2]*l[2]
		p3, q3 := x[3]*h[3], x[3]*l[3]
		u0 += max(p0, q0)
		u1 += max(p1, q1)
		u2 += max(p2, q2)
		u3 += max(p3, q3)
		l0 += min(p0, q0)
		l1 += min(p1, q1)
		l2 += min(p2, q2)
		l3 += min(p3, q3)
	}
	upper, lower = (u0+u1)+(u2+u3), (l0+l1)+(l2+l3)
	for ; i < len(a); i++ {
		p, q := a[i]*hi[i], a[i]*lo[i]
		upper += max(p, q)
		lower += min(p, q)
	}
	return upper, lower
}
