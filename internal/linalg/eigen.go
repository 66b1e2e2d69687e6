package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition S = V·diag(values)·Vᵀ of a symmetric
// matrix, with eigenvalues sorted in decreasing order and eigenvectors as the
// columns of Vectors.
type Eigen struct {
	// Values are the eigenvalues in decreasing order.
	Values []float64
	// Vectors is the n×n column-orthonormal matrix whose j-th column is the
	// eigenvector for Values[j].
	Vectors *Matrix
}

// ErrNotSymmetric is returned by SymEigen when the input matrix is not
// symmetric within a small tolerance.
var ErrNotSymmetric = errors.New("linalg: matrix is not symmetric")

// ErrNoConvergence is returned when the QL iteration exceeds its iteration
// cap or leaves a non-finite eigenvalue behind (finite input whose
// intermediate products overflow is the only known cause).
var ErrNoConvergence = errors.New("linalg: eigensolver did not converge")

const (
	// qlMaxIter caps the implicit-shift QL iterations spent on one
	// eigenvalue; convergence is cubic and two or three are typical.
	qlMaxIter    = 30
	symTolFactor = 1e-9
	machEps      = 0x1p-52
)

// SymEigen computes the eigendecomposition of the symmetric matrix s with
// the direct method: Householder reduction to tridiagonal form, then the
// implicit-shift QL iteration with the transformations accumulated into the
// eigenvectors. The input is not modified; after the symmetry check only
// its lower triangle is read.
//
// The cost is ≈ 9n³ flops, paid once (4n³/3 each for the reduction and for
// accumulating Q, the rest in QL rotations). The cyclic Jacobi solver this
// replaced paid ~10 sweeps of O(n³) with strided access: on a 366×366 Gram
// matrix (BenchmarkSymEigenM366) it took 1.3 s where this takes 70 ms, 18×
// less, with eigenvectors orthonormal to the same ~1e-13. Eigenvalues carry an
// absolute error of a few ulps of ‖s‖, as from any backward-stable solver;
// Jacobi's higher relative accuracy on tiny eigenvalues of well-scaled PSD
// input is given up, and nothing downstream used it. Each eigenvector's
// sign is normalised so that its largest-magnitude component (the first,
// among ties) is positive, which makes V a function of s rather than of a
// solver's rotation order.
func SymEigen(s *Matrix) (*Eigen, error) {
	n := s.rows
	if n != s.cols {
		return nil, fmt.Errorf("linalg: SymEigen needs a square matrix, got %d×%d", s.rows, s.cols)
	}
	if err := s.CheckFinite(); err != nil {
		return nil, err
	}
	tol := symTolFactor * s.MaxAbs()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(s.At(i, j)-s.At(j, i)) > tol {
				return nil, fmt.Errorf("%w: |a[%d][%d]-a[%d][%d]| = %g", ErrNotSymmetric,
					i, j, j, i, math.Abs(s.At(i, j)-s.At(j, i)))
			}
		}
	}
	if n == 0 {
		return &Eigen{Values: nil, Vectors: NewMatrix(0, 0)}, nil
	}

	// zt starts as a copy of s, becomes Qᵀ (T = QᵀSQ tridiagonal) and ends
	// as Vᵀ: eigenvectors live in its ROWS, so the QL rotations, which mix
	// two neighbouring eigenvectors, run over contiguous memory.
	zt := append([]float64(nil), s.data...)
	d := make([]float64, n) // diagonal of T, then the eigenvalues
	e := make([]float64, n) // e[i] = T[i+1][i]; e[n-1] = 0
	tridiagonalize(zt, n, d, e)
	if err := qlImplicit(zt, n, d, e); err != nil {
		return nil, err
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return d[order[i]] > d[order[j]] })

	eig := &Eigen{Values: make([]float64, n), Vectors: NewMatrix(n, n)}
	vd := eig.Vectors.data
	for j, idx := range order {
		eig.Values[j] = d[idx]
		row := zt[idx*n : (idx+1)*n]
		big := 0.0
		for _, x := range row {
			if math.Abs(x) > math.Abs(big) {
				big = x
			}
		}
		sign := 1.0
		if big < 0 {
			sign = -1
		}
		for i, x := range row {
			vd[i*n+j] = sign * x
		}
	}
	return eig, nil
}

// tridiagonalize reduces the symmetric n×n matrix in a (row-major, lower
// triangle) to tridiagonal form T = QᵀAQ with n−2 Householder reflections,
// leaving diag(T) in d, the subdiagonal in e (e[i] = T[i+1][i]) and Qᵀ in a.
// Every inner loop runs along a row.
func tridiagonalize(a []float64, n int, d, e []float64) {
	p := make([]float64, n)
	hh := make([]float64, n) // hh[i] = |u_i|²/2; 0 marks a skipped reflection

	// Step i annihilates a[i][0:i-1] with H = I − u·uᵀ/h acting on the
	// leading i coordinates; u (row i, scaled against overflow — H does not
	// depend on the length of u) overwrites a[i][0:i].
	for i := n - 1; i >= 1; i-- {
		u := a[i*n : i*n+i]
		var scale float64
		for _, x := range u[:i-1] {
			scale += math.Abs(x)
		}
		if scale == 0 { // row already tridiagonal (always so for i = 1)
			e[i-1] = u[i-1]
			continue
		}
		scale += math.Abs(u[i-1])
		var h float64
		for k := range u {
			u[k] /= scale
			h += u[k] * u[k]
		}
		f := u[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i-1] = scale * g
		h -= f * g
		u[i-1] = f - g
		hh[i] = h

		// p = A·u/h from the lower triangle: row j contributes its dot
		// with u to p[j] and, by symmetry, u[j]·row to p[0:j].
		for j := range p[:i] {
			p[j] = 0
		}
		for j := 0; j < i; j++ {
			row := a[j*n : j*n+j]
			uj := u[j]
			pj := p[:len(row)]
			uu := u[:len(row)]
			var dot float64
			for k, x := range row {
				dot += x * uu[k]
				pj[k] += x * uj
			}
			p[j] += dot + a[j*n+j]*uj
		}
		var kk float64
		for j := 0; j < i; j++ {
			p[j] /= h
			kk += p[j] * u[j]
		}
		kk /= 2 * h
		for j := 0; j < i; j++ {
			p[j] -= kk * u[j] // p is now q = p − K·u
		}
		// A ← A − u·qᵀ − q·uᵀ on the lower triangle of the leading block.
		for j := 0; j < i; j++ {
			row := a[j*n : j*n+j+1]
			uj, qj := u[j], p[j]
			uu, qq := u[:len(row)], p[:len(row)]
			for k := range row {
				row[k] -= uj*qq[k] + qj*uu[k]
			}
		}
	}
	for i := 0; i < n; i++ {
		d[i] = a[i*n+i]
	}
	e[n-1] = 0

	// Accumulate Qᵀ = H₁·H₂···H_{n−1} in place, left to right: before step
	// i the leading (i)×(i) block holds the product so far (H_j touches
	// only the first j coordinates), row i still holds u_i.
	a[0] = 1
	for i := 1; i < n; i++ {
		u := p[:i]
		copy(u, a[i*n:i*n+i])
		if h := hh[i]; h != 0 {
			for r := 0; r < i; r++ {
				row := a[r*n : r*n+i]
				Axpy(-Dot(row, u)/h, u, row)
			}
		}
		// Extend the block with the unit row and column i.
		for r := 0; r < i; r++ {
			a[r*n+i] = 0
		}
		row := a[i*n : i*n+i]
		for k := range row {
			row[k] = 0
		}
		a[i*n+i] = 1
	}
}

// qlImplicit diagonalises the tridiagonal matrix (d, e) by QL iterations
// with implicit Wilkinson shifts, applying every plane rotation to rows i
// and i+1 of zt. On return d holds the eigenvalues (unsorted) and row i of
// zt the eigenvector for d[i].
func qlImplicit(zt []float64, n int, d, e []float64) error {
	// A subdiagonal element is negligible once it is below the backward
	// error the reduction already committed, ε·‖T‖. (A test against its two
	// neighbours alone would chase relative accuracy the reduction has
	// lost, down to subnormal blocks whose "rotations" are not orthogonal.)
	var negligible float64
	for i := range d {
		negligible = math.Max(negligible, machEps*(math.Abs(d[i])+math.Abs(e[i])))
	}
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for m < n-1 && math.Abs(e[m]) > negligible {
				m++
			}
			if m == l {
				break
			}
			if iter == qlMaxIter {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			if g < 0 {
				r = -r
			}
			g = d[m] - d[l] + e[l]/(g+r)
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 { // underflow: recover and restart the sweep
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				lo := zt[i*n : (i+1)*n]
				hi := zt[(i+1)*n : (i+2)*n][:len(lo)]
				for k, x := range lo {
					y := hi[k]
					hi[k] = s*x + c*y
					lo[k] = c*x - s*y
				}
			}
			if i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	for _, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrNoConvergence
		}
	}
	return nil
}

// OrthonormalityError returns max |VᵀV − I| over all entries, a measure of
// how far the columns of v are from being orthonormal.
func OrthonormalityError(v *Matrix) float64 {
	g := Mul(v.T(), v)
	n := g.rows
	var mx float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if d := math.Abs(g.At(i, j) - want); d > mx {
				mx = d
			}
		}
	}
	return mx
}
