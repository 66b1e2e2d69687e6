package linalg

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// randSymmetric builds a random symmetric n×n matrix.
func randSymmetric(r *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64() * 5
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestSymEigenDiagonal(t *testing.T) {
	a := Diag([]float64{3, 1, 2})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, v := range want {
		if !almostEqual(eig.Values[i], v, 1e-12) {
			t.Errorf("Values[%d] = %v, want %v", i, eig.Values[i], v)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(eig.Values[0], 3, 1e-12) || !almostEqual(eig.Values[1], 1, 1e-12) {
		t.Errorf("Values = %v, want [3 1]", eig.Values)
	}
	// Eigenvector for 3 is (1,1)/√2 up to sign.
	v0 := eig.Vectors.Col(0)
	if !almostEqual(math.Abs(v0[0]), 1/math.Sqrt2, 1e-10) {
		t.Errorf("first eigenvector = %v", v0)
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {0, 1}})
	_, err := SymEigen(a)
	if !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("err = %v, want ErrNotSymmetric", err)
	}
}

func TestSymEigenRejectsNaN(t *testing.T) {
	a := FromRows([][]float64{{1, math.NaN()}, {math.NaN(), 1}})
	if _, err := SymEigen(a); !errors.Is(err, ErrNotFinite) {
		t.Errorf("err = %v, want ErrNotFinite", err)
	}
}

func TestSymEigenEmpty(t *testing.T) {
	eig, err := SymEigen(NewMatrix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(eig.Values) != 0 {
		t.Error("empty matrix should yield no eigenvalues")
	}
}

func TestSymEigenZeroMatrix(t *testing.T) {
	eig, err := SymEigen(NewMatrix(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if v != 0 {
			t.Errorf("zero matrix eigenvalue %v != 0", v)
		}
	}
	if e := OrthonormalityError(eig.Vectors); e > 1e-12 {
		t.Errorf("eigenvectors of zero matrix not orthonormal: %g", e)
	}
}

// checkEigen is the property every SymEigen result must satisfy: each
// residual ‖S·v − λ·v‖ ≤ 1e-12·n·‖S‖, VᵀV = I to 1e-12, eigenvalues in
// descending order, and each eigenvector's largest-magnitude component (the
// first among ties) positive.
func checkEigen(t testing.TB, s *Matrix, eig *Eigen) {
	t.Helper()
	n := s.Rows()
	if len(eig.Values) != n || eig.Vectors.Rows() != n || eig.Vectors.Cols() != n {
		t.Fatalf("n=%d: got %d values, %d×%d vectors", n, len(eig.Values), eig.Vectors.Rows(), eig.Vectors.Cols())
	}
	if e := OrthonormalityError(eig.Vectors); !(e <= 1e-12) {
		t.Errorf("n=%d: VᵀV deviates from I by %g", n, e)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(eig.Values))) {
		t.Errorf("n=%d: eigenvalues not sorted descending: %v", n, eig.Values)
	}
	bound := 1e-12 * float64(n) * s.FrobeniusNorm()
	for j, lambda := range eig.Values {
		v := eig.Vectors.Col(j)
		sv := s.MulVec(v)
		big := 0.0
		for i := range sv {
			sv[i] -= lambda * v[i]
			if math.Abs(v[i]) > math.Abs(big) {
				big = v[i]
			}
		}
		if r := Norm2(sv); !(r <= bound) {
			t.Errorf("n=%d: pair %d residual %g > %g", n, j, r, bound)
		}
		if big <= 0 {
			t.Errorf("n=%d: eigenvector %d has largest component %g, want it positive", n, j, big)
		}
	}
}

// jacobiEigen is the test oracle: the cyclic Jacobi method SymEigen used
// before the direct solver. Slow (O(n³) per sweep) but independent of
// tridiagonalization, and accurate to high relative precision on PSD input.
// It returns the eigenvalues in descending order with matching columns.
func jacobiEigen(s *Matrix) ([]float64, *Matrix) {
	n := s.Rows()
	a, v := s.Clone(), Identity(n)
	for sweep := 0; sweep < 64; sweep++ {
		var off float64
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += a.At(p, q) * a.At(p, q)
			}
		}
		if math.Sqrt(off) <= 1e-15*s.MaxAbs() {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if a.At(p, q) == 0 {
					continue
				}
				theta := (a.At(q, q) - a.At(p, p)) / (2 * a.At(p, q))
				t := 1 / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(1+t*t)
				g := Identity(n) // the plane rotation, applied as a ← GᵀaG, v ← vG
				g.Set(p, p, c)
				g.Set(q, q, c)
				g.Set(p, q, t*c)
				g.Set(q, p, -t*c)
				a, v = Mul(Mul(g.T(), a), g), Mul(v, g)
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return a.At(order[i], order[i]) > a.At(order[j], order[j]) })
	vals, vecs := make([]float64, n), NewMatrix(n, n)
	for j, idx := range order {
		vals[j] = a.At(idx, idx)
		for i := 0; i < n; i++ {
			vecs.Set(i, j, v.At(i, idx))
		}
	}
	return vals, vecs
}

// withSpectrum returns Q·diag(lambda)·Qᵀ for a random orthogonal Q.
func withSpectrum(r *rand.Rand, lambda []float64) *Matrix {
	n := len(lambda)
	f, err := QRFactor(randMatrix(r, n, n))
	if err != nil {
		panic(err)
	}
	q := f.ThinQ()
	s := Mul(Mul(q, Diag(lambda)), q.T())
	for i := 0; i < n; i++ { // symmetrize roundoff
		for j := i + 1; j < n; j++ {
			v := (s.At(i, j) + s.At(j, i)) / 2
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	return s
}

// eigenFixtures are the spectra a direct solver is most likely to get
// wrong: multiplicities, clusters, rank deficiency, mixed signs, grading.
func eigenFixtures() map[string]*Matrix {
	r := rand.New(rand.NewSource(17))
	clustered := make([]float64, 24)
	graded := make([]float64, 24)
	for i := range clustered {
		clustered[i] = 1 + float64(i%6)*1e-9 + float64(i/6)
		graded[i] = math.Pow(10, 12-float64(i)/2)
	}
	wide := randMatrix(r, 9, 30) // N < M: the Gram matrix has 21 zero eigenvalues
	return map[string]*Matrix{
		"1x1":         FromRows([][]float64{{-3}}),
		"2x2":         FromRows([][]float64{{2, 1}, {1, 2}}),
		"antidiag":    FromRows([][]float64{{0, 1}, {1, 0}}),
		"diagonal":    Diag([]float64{3, -1, 2, 2, 0}),
		"tridiagonal": FromRows([][]float64{{2, -1, 0, 0}, {-1, 2, -1, 0}, {0, -1, 2, -1}, {0, 0, -1, 2}}),
		"repeated":    withSpectrum(r, []float64{5, 5, 5, 2, 2, 1, 1, 1, 1, 0}),
		"clustered":   withSpectrum(r, clustered),
		"graded":      withSpectrum(r, graded),
		"rankdef":     Mul(wide.T(), wide),
		"indefinite":  randSymmetric(r, 31),
		"scaled-up":   randSymmetric(r, 12).Scale(1e150),
		"scaled-down": randSymmetric(r, 12).Scale(1e-150),
	}
}

func TestSymEigenFixtures(t *testing.T) {
	for name, s := range eigenFixtures() {
		eig, err := SymEigen(s)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		t.Run(name, func(t *testing.T) { checkEigen(t, s, eig) })
	}
}

func TestSymEigenRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 10, 40, 100} {
		s := randSymmetric(rng, n)
		eig, err := SymEigen(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkEigen(t, s, eig)
	}
}

// The compressor's own size: a 366×366 Gram matrix.
func TestSymEigenM366(t *testing.T) {
	if testing.Short() {
		t.Skip("n=366 check (O(n³) verification)")
	}
	b := randMatrix(rand.New(rand.NewSource(5)), 400, 366)
	s := Mul(b.T(), b)
	eig, err := SymEigen(s)
	if err != nil {
		t.Fatal(err)
	}
	checkEigen(t, s, eig)
}

// TestSymEigenMatchesJacobi is the differential check: eigenvalues agree
// with the oracle to 1e-12·λ₁, and so do the invariant subspaces — compared
// as projectors V_c·V_cᵀ per cluster of eigenvalues closer than 1e-6·λ₁,
// because inside a cluster the basis is the solver's free choice.
func TestSymEigenMatchesJacobi(t *testing.T) {
	for name, s := range eigenFixtures() {
		eig, err := SymEigen(s)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		wantVals, wantVecs := jacobiEigen(s)
		n := s.Rows()
		scale := math.Max(math.Abs(wantVals[0]), math.Abs(wantVals[n-1]))
		for j := range wantVals {
			if d := math.Abs(eig.Values[j] - wantVals[j]); d > 1e-12*scale {
				t.Errorf("%s: λ[%d] = %g, oracle %g (diff %g)", name, j, eig.Values[j], wantVals[j], d)
			}
		}
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && wantVals[hi-1]-wantVals[hi] < 1e-6*scale {
				hi++
			}
			proj := func(v *Matrix) *Matrix {
				c := NewMatrix(n, hi-lo)
				for i := 0; i < n; i++ {
					copy(c.Row(i), v.Row(i)[lo:hi])
				}
				return mulABt(c, c)
			}
			if d := Sub(proj(eig.Vectors), proj(wantVecs)).MaxAbs(); d > 1e-8 {
				t.Errorf("%s: invariant subspace of λ[%d:%d] differs from the oracle's by %g", name, lo, hi, d)
			}
			lo = hi
		}
	}
}

// A finite matrix whose row sums overflow turns the Householder scaling
// into NaNs; the QL loop must give up at its iteration cap, not spin.
func TestSymEigenIterationCap(t *testing.T) {
	s := NewMatrix(3, 3)
	for i := range s.data {
		s.data[i] = math.MaxFloat64
	}
	done := make(chan error, 1)
	go func() { _, err := SymEigen(s); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoConvergence) {
			t.Errorf("err = %v, want ErrNoConvergence", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SymEigen hangs on overflowing input")
	}
}

func TestSymEigenRejectsInf(t *testing.T) {
	a := FromRows([][]float64{{1, math.Inf(1)}, {math.Inf(1), 1}})
	if _, err := SymEigen(a); !errors.Is(err, ErrNotFinite) {
		t.Errorf("err = %v, want ErrNotFinite", err)
	}
}

// FuzzSymEigen decodes bytes into a symmetric matrix of order ≤ 8 whose
// entries are small integers times powers of two spanning 2^±508 (so graded
// and badly scaled input is the norm, but no intermediate can overflow), with
// an occasional NaN. Every success must satisfy checkEigen; the only
// acceptable failure is the typed rejection of the NaN.
func FuzzSymEigen(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0})
	f.Add([]byte{8, 127, 127, 1, 129, 77, 3})
	f.Add([]byte{2, 128, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		s := NewMatrix(n, n)
		hasNaN := false
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				var v float64
				if len(data) >= 2 {
					v = math.Ldexp(float64(int8(data[0])), 4*int(int8(data[1])))
					if data[0] == 128 {
						v, hasNaN = math.NaN(), true
					}
					data = data[2:]
				}
				s.Set(i, j, v)
				s.Set(j, i, v)
			}
		}
		eig, err := SymEigen(s)
		if hasNaN {
			if !errors.Is(err, ErrNotFinite) {
				t.Fatalf("NaN input: err = %v, want ErrNotFinite", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("finite symmetric input rejected: %v", err)
		}
		checkEigen(t, s, eig)
	})
}

// Property: the trace equals the sum of eigenvalues.
func TestSymEigenTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		s := randSymmetric(r, n)
		eig, err := SymEigen(s)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += s.At(i, i)
		}
		for _, v := range eig.Values {
			sum += v
		}
		return almostEqual(trace, sum, 1e-8*math.Max(math.Abs(trace), 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: for PSD matrices BᵀB all eigenvalues are ≥ 0 (up to roundoff).
func TestSymEigenPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(8), 1+r.Intn(8)
		b := randMatrix(r, n, m)
		s := Mul(b.T(), b)
		eig, err := SymEigen(s)
		if err != nil {
			return false
		}
		for _, v := range eig.Values {
			if v < -1e-7*math.Max(s.MaxAbs(), 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOrthonormalityErrorDetects(t *testing.T) {
	bad := FromRows([][]float64{{1, 1}, {0, 1}})
	if OrthonormalityError(bad) < 0.5 {
		t.Error("OrthonormalityError failed to flag a non-orthonormal matrix")
	}
	if OrthonormalityError(Identity(4)) > 1e-15 {
		t.Error("identity should be perfectly orthonormal")
	}
}

func BenchmarkSymEigenM366(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bm := randMatrix(rng, 400, 366)
	s := Mul(bm.T(), bm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(s); err != nil {
			b.Fatal(err)
		}
	}
}
