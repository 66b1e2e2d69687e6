package linalg

import (
	"fmt"
	"math"
)

// SVD is the thin singular value decomposition X = U·diag(Sigma)·Vᵀ where U
// is N×r column-orthonormal, V is M×r column-orthonormal, and Sigma holds the
// r = min(rank cutoff) singular values in decreasing order.
type SVD struct {
	U     *Matrix   // N×r row-to-pattern similarity (Observation 3.1)
	Sigma []float64 // singular values, decreasing
	V     *Matrix   // M×r column-to-pattern similarity (Observation 3.2)
}

// rankTolFactor sets the numerical rank of a matrix factored through its
// Gram matrix C: a backward-stable eigensolver returns the eigenvalues of C
// with an absolute error of a few ulps of λ₁, and forming C adds up to
// max(N,M) roundings per entry, so eigenvalues below λ₁·max(N,M)·1e-14 are
// indistinguishable from zero (singular values below ~σ₁·1e-7·√max(N,M)).
const rankTolFactor = 1e-14

// ComputeSVD computes the thin SVD of x via the eigendecomposition of the
// M×M column-similarity matrix C = XᵀX (Lemma 3.2 of the paper). This is the
// in-memory counterpart of the two-pass out-of-core algorithm in
// internal/svd; both produce the same factorization and are cross-checked in
// tests.
//
// Singular values numerically indistinguishable from zero are dropped, so r
// equals the numerical rank of x.
func ComputeSVD(x *Matrix) (*SVD, error) {
	if err := x.CheckFinite(); err != nil {
		return nil, err
	}
	n, m := x.Dims()
	if n == 0 || m == 0 {
		return &SVD{U: NewMatrix(n, 0), Sigma: nil, V: NewMatrix(m, 0)}, nil
	}

	// C = XᵀX, accumulated row by row exactly like the out-of-core pass.
	c := NewMatrix(m, m)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, vj := range row {
			if vj == 0 {
				continue
			}
			crow := c.Row(j)
			for l, vl := range row {
				crow[l] += vj * vl
			}
		}
	}
	svd, err := svdFromGram(x, c)
	if err != nil {
		return nil, fmt.Errorf("linalg: SVD eigen step: %w", err)
	}
	return svd, nil
}

// svdFromGram finishes the thin SVD of x (n×m) given c = xᵀx: V and Σ² are
// the eigenpairs of c above the numerical-rank tolerance, and
// U = X·V·Σ⁻¹ (Eq. 10/11 of the paper).
func svdFromGram(x, c *Matrix) (*SVD, error) {
	n, m := x.Dims()
	eig, err := SymEigen(c)
	if err != nil {
		return nil, err
	}
	// Eigenvalues of C are σ²; the numerical rank ends at the first one
	// lost in roundoff.
	tol := eig.Values[0] * float64(max(n, m)) * rankTolFactor
	sigma := make([]float64, 0, m)
	for _, ev := range eig.Values {
		if ev <= tol {
			break
		}
		sigma = append(sigma, math.Sqrt(ev))
	}
	r := len(sigma)

	v := NewMatrix(m, r)
	for i := 0; i < m; i++ {
		copy(v.Row(i), eig.Vectors.Row(i)[:r])
	}
	u := NewMatrix(n, r)
	for i := 0; i < n; i++ {
		xrow := x.Row(i)
		urow := u.Row(i)
		for l, xv := range xrow {
			Axpy(xv, v.Row(l), urow)
		}
		for j := range urow {
			urow[j] /= sigma[j]
		}
	}
	return &SVD{U: u, Sigma: sigma, V: v}, nil
}

// Truncate returns a copy of the decomposition keeping only the first k
// principal components (k is clamped to [0, r]).
func (s *SVD) Truncate(k int) *SVD {
	r := len(s.Sigma)
	if k > r {
		k = r
	}
	if k < 0 {
		k = 0
	}
	u := NewMatrix(s.U.Rows(), k)
	v := NewMatrix(s.V.Rows(), k)
	for i := 0; i < s.U.Rows(); i++ {
		copy(u.Row(i), s.U.Row(i)[:k])
	}
	for i := 0; i < s.V.Rows(); i++ {
		copy(v.Row(i), s.V.Row(i)[:k])
	}
	sig := make([]float64, k)
	copy(sig, s.Sigma[:k])
	return &SVD{U: u, Sigma: sig, V: v}
}

// Rank returns the number of retained components.
func (s *SVD) Rank() int { return len(s.Sigma) }

// ReconstructCell returns the rank-k approximation of cell (i, j):
// Σ_m σ_m·u[i][m]·v[j][m] (Eq. 12 of the paper). It is O(k).
func (s *SVD) ReconstructCell(i, j int) float64 {
	urow := s.U.Row(i)
	vrow := s.V.Row(j)
	var x float64
	for m, sig := range s.Sigma {
		x += sig * urow[m] * vrow[m]
	}
	return x
}

// ReconstructRow appends the rank-k approximation of row i to dst and
// returns it. dst may be nil.
func (s *SVD) ReconstructRow(i int, dst []float64) []float64 {
	m := s.V.Rows()
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	urow := s.U.Row(i)
	for j := 0; j < m; j++ {
		vrow := s.V.Row(j)
		var x float64
		for c, sig := range s.Sigma {
			x += sig * urow[c] * vrow[c]
		}
		dst[j] = x
	}
	return dst
}

// Reconstruct materializes the full rank-k approximation X̂ = U·Σ·Vᵀ.
// Intended for tests and small matrices.
func (s *SVD) Reconstruct() *Matrix {
	n := s.U.Rows()
	m := s.V.Rows()
	out := NewMatrix(n, m)
	for i := 0; i < n; i++ {
		s.ReconstructRow(i, out.Row(i))
	}
	return out
}
