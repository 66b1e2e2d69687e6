// Randomized low-rank building blocks for the sketch compressor
// (Halko–Martinsson–Tropp): a deterministic Gaussian-ish test matrix, a
// single-pass Nyström eigenvalue recovery for PSD matrices, and a small
// dense SVD routed through SymEigen. The streaming
// drivers that feed these live in internal/svd (onepass.go); everything
// here is dense, in-memory, and sized O(M·(k+p)) or smaller.
package linalg

import (
	"fmt"
	"math"
)

// GaussianSketch returns a deterministic rows×cols test matrix with
// iid roughly-normal entries. The same (rows, cols, seed) always yields the
// same matrix, so sketch-compressed stores are exactly reproducible.
func GaussianSketch(rows, cols int, seed uint64) *Matrix {
	m := NewMatrix(rows, cols)
	rng := splitmixState(seed)
	for i := range m.data {
		m.data[i] = rng.normish()
	}
	return m
}

// splitmixState is a tiny deterministic generator for test matrices.
type splitmixState uint64

func (s *splitmixState) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// normish returns a roughly-normal value in (−6, 6): a sum of uniforms.
func (s *splitmixState) normish() float64 {
	var acc float64
	for i := 0; i < 12; i++ {
		acc += float64(s.next()%(1<<20)) / (1 << 20)
	}
	return acc - 6
}

// mulABt returns A·Bᵀ for row-major a (p×n) and b (q×n): out[i][j] =
// dot(a_i, b_j), without materializing the transpose.
func mulABt(a, b *Matrix) *Matrix {
	p, n := a.Dims()
	qq, n2 := b.Dims()
	if n != n2 {
		panic(fmt.Sprintf("linalg: mulABt mismatch %d vs %d", n, n2))
	}
	out := NewMatrix(p, qq)
	for i := 0; i < p; i++ {
		ai := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < qq; j++ {
			orow[j] = Dot(ai, b.Row(j))
		}
	}
	return out
}

// SVDViaGram computes the thin SVD of a via the eigendecomposition of the
// Gram matrix of its smaller side — the eigensolver the two-pass
// pipeline already relies on (Lemma 3.2 applied to a small dense block).
// For a tall m×n (m ≥ n) it eigendecomposes aᵀa (n×n); for a wide block,
// a·aᵀ. Singular values numerically indistinguishable from zero are
// dropped, so the factors always satisfy U·diag(Σ)·Vᵀ ≈ a with orthonormal
// U and V.
//
// The randomized compressor calls this on (k+p)-thin projections, where
// the Gram side is (k+p)×(k+p) and the O(b³) eigensolve is negligible.
func SVDViaGram(a *Matrix) (*SVD, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return &SVD{U: NewMatrix(m, 0), Sigma: nil, V: NewMatrix(n, 0)}, nil
	}
	if m < n {
		flipped, err := SVDViaGram(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: flipped.V, Sigma: flipped.Sigma, V: flipped.U}, nil
	}
	g := Mul(a.T(), a)
	// Symmetrize roundoff so SymEigen's symmetry check never trips.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (g.At(i, j) + g.At(j, i)) / 2
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	svd, err := svdFromGram(a, g)
	if err != nil {
		return nil, fmt.Errorf("linalg: SVDViaGram eigen step: %w", err)
	}
	return svd, nil
}

// NystromEigen recovers approximate top eigenpairs of a symmetric
// positive-semidefinite matrix C from a single sketch Y = C·Ω, without any
// further access to C — the single-pass recovery that lets the SVDD
// pipeline compute its factors and its outlier scan in two total passes.
//
// It implements the shifted Nyström approximation
//
//	C ≈ Yν·(ΩᵀYν)⁻¹·Yνᵀ,  Yν = Y + ν·Ω,  ν = ε·‖Y‖F
//
// factored through a Cholesky of ΩᵀYν and a thin SVD of F = Yν·L⁻ᵀ (so
// C + νI ≈ F·Fᵀ); eigenvalues are the squared singular values of F minus
// the shift, clamped at zero. When the Cholesky fails outright (rank
// collapse beyond what the shift absorbs) the shift is grown and retried.
//
// Both Y and Ω are M×b; everything allocated here is O(M·b) or b×b.
func NystromEigen(y, omega *Matrix) (*Eigen, error) {
	m, b := y.Dims()
	if om, ob := omega.Dims(); om != m || ob != b {
		return nil, fmt.Errorf("linalg: NystromEigen shape mismatch %d×%d vs %d×%d", m, b, om, ob)
	}
	if b == 0 {
		return &Eigen{Values: nil, Vectors: NewMatrix(m, 0)}, nil
	}
	if err := y.CheckFinite(); err != nil {
		return nil, err // a NaN or ±Inf data cell reaches every column of Y
	}
	normY := y.FrobeniusNorm()
	if normY == 0 {
		// C·Ω = 0 for a full random Ω ⇒ C ≈ 0.
		return &Eigen{Values: make([]float64, b), Vectors: NewMatrix(m, b)}, nil
	}
	shift := math.Sqrt(float64(m)) * 1e-15 * normY
	var f *Matrix
	var err error
	for attempt := 0; ; attempt++ {
		yv := NewMatrix(m, b)
		for i := range yv.data {
			yv.data[i] = y.data[i] + shift*omega.data[i]
		}
		g := mulABt(yv.T(), omega.T()) // ΩᵀYν, computed as (Yνᵀ)·(Ωᵀ)ᵀ
		for i := 0; i < b; i++ {       // symmetrize: ΩᵀCΩ + νΩᵀΩ is symmetric up to roundoff
			for j := i + 1; j < b; j++ {
				v := (g.At(i, j) + g.At(j, i)) / 2
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
		}
		var l *Matrix
		l, err = Cholesky(g)
		if err == nil {
			f = SolveLowerT(yv, l)
			break
		}
		if attempt >= 6 {
			return nil, fmt.Errorf("linalg: NystromEigen: core matrix not PSD after %d shift retries: %w", attempt, err)
		}
		shift *= 100
	}
	fsvd, err := SVDViaGram(f)
	if err != nil {
		return nil, fmt.Errorf("linalg: NystromEigen: %w", err)
	}
	eig := &Eigen{Values: make([]float64, b), Vectors: NewMatrix(m, b)}
	for j, s := range fsvd.Sigma {
		ev := s*s - shift
		if ev < 0 {
			ev = 0
		}
		eig.Values[j] = ev
		for i := 0; i < m; i++ {
			eig.Vectors.Set(i, j, fsvd.U.At(i, j))
		}
	}
	return eig, nil
}
