package svd

import (
	"math"
	"testing"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
)

// decayingMatrix builds an n×m matrix with singular values 50·decay^j so
// accuracy claims about recovered factors are well-posed (distinct gaps).
func decayingMatrix(n, m, r int, decay float64, seed uint64) *linalg.Matrix {
	lq, err := linalg.QRFactor(linalg.GaussianSketch(n, r, seed))
	if err != nil {
		panic(err)
	}
	rq, err := linalg.QRFactor(linalg.GaussianSketch(m, r, seed+1))
	if err != nil {
		panic(err)
	}
	u, v := lq.ThinQ(), rq.ThinQ()
	x := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for l := 0; l < r; l++ {
				s += u.At(i, l) * 50 * math.Pow(decay, float64(l)) * v.At(j, l)
			}
			x.Set(i, j, s)
		}
	}
	return x
}

func TestRandFactorsMatchReference(t *testing.T) {
	x := decayingMatrix(60, 20, 12, 0.6, 7)
	ref, err := linalg.ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, piters := range []int{-1, 0, 3} {
		f, err := ComputeFactorsRandWorkers(matio.NewMem(x), RandOptions{Rank: 5, PowerIters: piters, Workers: 1})
		if err != nil {
			t.Fatalf("PowerIters=%d: %v", piters, err)
		}
		if f.Rank() != 5 {
			t.Fatalf("PowerIters=%d: rank %d, want 5", piters, f.Rank())
		}
		tol := 1e-6
		if piters < 0 {
			tol = 1e-3 // single-pass Nyström is the roughest recovery
		}
		for j := 0; j < 5; j++ {
			if rel := math.Abs(f.Sigma[j]-ref.Sigma[j]) / ref.Sigma[j]; rel > tol {
				t.Errorf("PowerIters=%d: σ[%d] = %g, want %g (rel %g)", piters, j, f.Sigma[j], ref.Sigma[j], rel)
			}
			dot := linalg.Dot(f.V.Col(j), ref.V.Col(j))
			if math.Abs(math.Abs(dot)-1) > 1e-3 {
				t.Errorf("PowerIters=%d: V column %d misaligned (|dot| = %g)", piters, j, math.Abs(dot))
			}
		}
	}
}

func TestRandCompressPassCounts(t *testing.T) {
	x := decayingMatrix(50, 16, 10, 0.7, 3)
	cases := []struct {
		piters int
		want   int64
	}{
		{0, 2},  // default: sketch + 1 fused power pass (Z-buffer emission)
		{-1, 2}, // Nyström factors (1) + standard U pass (1)
		{2, 3},  // sketch + 2 power passes, U fused into the last
	}
	for _, c := range cases {
		mem := matio.NewMem(x)
		s, err := CompressRandWorkers(mem, 4, RandOptions{PowerIters: c.piters, Workers: 1})
		if err != nil {
			t.Fatalf("PowerIters=%d: %v", c.piters, err)
		}
		if got := mem.Stats().Passes(); got != c.want {
			t.Errorf("PowerIters=%d: %d passes, want %d", c.piters, got, c.want)
		}
		if s.K() != 4 {
			t.Errorf("PowerIters=%d: store k = %d, want 4", c.piters, s.K())
		}
	}
	// Factors alone via Nyström: a single pass.
	mem := matio.NewMem(x)
	if _, err := ComputeFactorsRandWorkers(mem, RandOptions{Rank: 4, PowerIters: -1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Passes(); got != 1 {
		t.Errorf("Nyström factor pass count = %d, want 1", got)
	}
}

func TestRandCompressReconstructsExactlyAtFullRank(t *testing.T) {
	// Rank-6 matrix, rank-6 cutoff: the sketch spans the whole row space, so
	// reconstruction should be exact to numerical precision.
	x := decayingMatrix(40, 10, 6, 0.5, 11)
	s, err := CompressRandWorkers(matio.NewMem(x), 6, RandOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 10; j++ {
			got, err := s.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-x.At(i, j)) > 1e-7 {
				t.Errorf("cell (%d,%d) = %g, want %g", i, j, got, x.At(i, j))
			}
		}
	}
}

func TestRandCompressZeroRows(t *testing.T) {
	x := decayingMatrix(30, 8, 4, 0.5, 13)
	for j := 0; j < 8; j++ {
		x.Set(4, j, 0)
	}
	s, err := CompressRandWorkers(matio.NewMem(x), 4, RandOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 8; j++ {
		got, err := s.Cell(4, j)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("zero row reconstructed cell (4,%d) = %g, want 0", j, got)
		}
	}
}

func TestRandWorkersAgree(t *testing.T) {
	// Enough rows for multiple chunks so the sharded path actually runs.
	n := 3 * matio.DefaultChunkRows
	x := decayingMatrix(n, 12, 8, 0.7, 17)
	var sigmas [][]float64
	for _, w := range []int{1, 3} {
		f, err := ComputeFactorsRandWorkers(matio.NewMem(x), RandOptions{Rank: 4, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sigmas = append(sigmas, f.Sigma)
	}
	for j := range sigmas[0] {
		if rel := math.Abs(sigmas[0][j]-sigmas[1][j]) / sigmas[0][j]; rel > 1e-9 {
			t.Errorf("σ[%d] differs across worker counts: %g vs %g", j, sigmas[0][j], sigmas[1][j])
		}
	}
	// Same options twice must be bit-identical (deterministic sketch and
	// reduction order).
	f1, err := ComputeFactorsRandWorkers(matio.NewMem(x), RandOptions{Rank: 4, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ComputeFactorsRandWorkers(matio.NewMem(x), RandOptions{Rank: 4, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for j := range f1.Sigma {
		if f1.Sigma[j] != f2.Sigma[j] {
			t.Errorf("σ[%d] not deterministic: %g vs %g", j, f1.Sigma[j], f2.Sigma[j])
		}
	}
	for i := 0; i < f1.V.Rows(); i++ {
		for j := 0; j < f1.V.Cols(); j++ {
			if f1.V.At(i, j) != f2.V.At(i, j) {
				t.Fatalf("V[%d][%d] not deterministic", i, j)
			}
		}
	}
}

func TestRandOptionsValidation(t *testing.T) {
	x := decayingMatrix(10, 5, 3, 0.5, 19)
	if _, err := ComputeFactorsRandWorkers(matio.NewMem(x), RandOptions{Rank: 0, Workers: 1}); err == nil {
		t.Error("accepted Rank=0")
	}
	if _, err := ComputeFactorsRandWorkers(matio.NewMem(linalg.NewMatrix(0, 5)), RandOptions{Rank: 2, Workers: 1}); err == nil {
		t.Error("accepted empty matrix")
	}
	// Rank beyond M clamps rather than failing.
	f, err := ComputeFactorsRandWorkers(matio.NewMem(x), RandOptions{Rank: 99, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() > 5 {
		t.Errorf("rank %d exceeds column count", f.Rank())
	}
}
