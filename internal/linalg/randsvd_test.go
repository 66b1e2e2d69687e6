package linalg

import (
	"math"
	"testing"
)

func TestGaussianSketchDeterministic(t *testing.T) {
	a := GaussianSketch(17, 9, 42)
	b := GaussianSketch(17, 9, 42)
	if maxAbsDiff(a, b) != 0 {
		t.Error("same seed produced different sketches")
	}
	c := GaussianSketch(17, 9, 43)
	if maxAbsDiff(a, c) == 0 {
		t.Error("different seeds produced identical sketches")
	}
	// Entries should look roughly centered and bounded (sum of 12 uniforms).
	var sum float64
	for _, v := range a.data {
		if math.Abs(v) >= 6 {
			t.Fatalf("entry %g outside (−6, 6)", v)
		}
		sum += v
	}
	if mean := sum / float64(len(a.data)); math.Abs(mean) > 0.5 {
		t.Errorf("mean %g too far from 0", mean)
	}
}

func TestSVDViaGramMatchesReference(t *testing.T) {
	cases := []struct{ m, n int }{{12, 5}, {5, 12}, {9, 9}, {1, 4}, {30, 3}}
	for _, c := range cases {
		a := GaussianSketch(c.m, c.n, uint64(c.m*100+c.n))
		got, err := SVDViaGram(a)
		if err != nil {
			t.Fatalf("SVDViaGram(%d×%d): %v", c.m, c.n, err)
		}
		want, err := ComputeSVD(a)
		if err != nil {
			t.Fatalf("ComputeSVD: %v", err)
		}
		// ComputeSVD always Grams the column side; on wide matrices the
		// √λ amplification of eigensolver roundoff can leave it with spurious
		// tiny singular values beyond the true rank, so compare only the
		// shared prefix and require our rank to respect min(m, n).
		if maxRank := min(c.m, c.n); len(got.Sigma) > maxRank {
			t.Fatalf("%d×%d: rank %d exceeds min dim %d", c.m, c.n, len(got.Sigma), maxRank)
		}
		for j := range got.Sigma {
			if j >= len(want.Sigma) {
				break
			}
			if !almostEqual(got.Sigma[j], want.Sigma[j], 1e-8*math.Max(want.Sigma[0], 1)) {
				t.Errorf("%d×%d: σ[%d] = %g, want %g", c.m, c.n, j, got.Sigma[j], want.Sigma[j])
			}
		}
		if e := OrthonormalityError(got.U); e > 1e-9 {
			t.Errorf("%d×%d: U orthonormality error %g", c.m, c.n, e)
		}
		if e := OrthonormalityError(got.V); e > 1e-9 {
			t.Errorf("%d×%d: V orthonormality error %g", c.m, c.n, e)
		}
		// U·diag(Σ)·Vᵀ ≈ A.
		recon := NewMatrix(c.m, c.n)
		for i := 0; i < c.m; i++ {
			for j := 0; j < c.n; j++ {
				var s float64
				for l := range got.Sigma {
					s += got.U.At(i, l) * got.Sigma[l] * got.V.At(j, l)
				}
				recon.Set(i, j, s)
			}
		}
		if d := maxAbsDiff(recon, a); d > 1e-8*math.Max(a.MaxAbs(), 1) {
			t.Errorf("%d×%d: ‖UΣVᵀ − A‖∞ = %g", c.m, c.n, d)
		}
	}
}

func TestSVDViaGramEmpty(t *testing.T) {
	s, err := SVDViaGram(NewMatrix(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sigma) != 0 {
		t.Errorf("empty matrix produced %d singular values", len(s.Sigma))
	}
}

// TestNystromEigenRecoversSpectrum checks the single-pass recovery against the
// exact eigendecomposition: a PSD matrix with a fast-decaying spectrum,
// sketched with oversampling, must give back the dominant eigenpairs.
func TestNystromEigenRecoversSpectrum(t *testing.T) {
	m, k, b := 40, 4, 12
	// Build C = W·diag(λ)·Wᵀ with a sharply decaying spectrum.
	base := GaussianSketch(m, m, 5)
	f, err := QRFactor(base)
	if err != nil {
		t.Fatal(err)
	}
	w := f.ThinQ()
	lambda := make([]float64, m)
	for i := range lambda {
		lambda[i] = 100 * math.Pow(0.3, float64(i))
	}
	c := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for l := 0; l < m; l++ {
				s += w.At(i, l) * lambda[l] * w.At(j, l)
			}
			c.Set(i, j, s)
		}
	}

	omega := GaussianSketch(m, b, 11)
	y := Mul(c, omega)
	got, err := NystromEigen(y, omega)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SymEigen(c)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		if rel := math.Abs(got.Values[j]-want.Values[j]) / want.Values[j]; rel > 1e-3 {
			t.Errorf("λ[%d] = %g, want %g (rel err %g)", j, got.Values[j], want.Values[j], rel)
		}
		// Eigenvector match up to sign: |⟨v̂, v⟩| ≈ 1.
		var dot float64
		for i := 0; i < m; i++ {
			dot += got.Vectors.At(i, j) * want.Vectors.At(i, j)
		}
		if math.Abs(dot) < 1-1e-3 {
			t.Errorf("eigenvector %d misaligned: |⟨v̂,v⟩| = %g", j, math.Abs(dot))
		}
	}
}

func TestNystromEigenZeroSketch(t *testing.T) {
	m, b := 10, 4
	eig, err := NystromEigen(NewMatrix(m, b), GaussianSketch(m, b, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if v != 0 {
			t.Errorf("zero sketch gave eigenvalue %g", v)
		}
	}
}

func TestNystromEigenShapeMismatch(t *testing.T) {
	if _, err := NystromEigen(NewMatrix(5, 3), NewMatrix(5, 4)); err == nil {
		t.Error("accepted mismatched shapes")
	}
}
