package svd

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
)

func randMatrix(r *rand.Rand, n, m int) *linalg.Matrix {
	x := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			x.Set(i, j, r.NormFloat64()*10)
		}
	}
	return x
}

func TestComputeFactorsMatchesInMemorySVD(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := randMatrix(r, 40, 12)
	f, err := ComputeFactors(matio.NewMem(x))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := linalg.ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() != ref.Rank() {
		t.Fatalf("rank %d vs reference %d", f.Rank(), ref.Rank())
	}
	for i := range f.Sigma {
		if math.Abs(f.Sigma[i]-ref.Sigma[i]) > 1e-8*ref.Sigma[0] {
			t.Errorf("σ[%d] = %v vs %v", i, f.Sigma[i], ref.Sigma[i])
		}
	}
	// V columns match up to sign.
	for j := 0; j < f.Rank(); j++ {
		dot := linalg.Dot(f.V.Col(j), ref.V.Col(j))
		if math.Abs(math.Abs(dot)-1) > 1e-6 {
			t.Errorf("V column %d not aligned with reference (|dot| = %v)", j, math.Abs(dot))
		}
	}
}

func TestAccumulateCMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := randMatrix(r, 15, 6)
	c, err := AccumulateCWorkers(matio.NewMem(x), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.Mul(x.T(), x)
	if !linalg.Equal(c, want, 1e-9) {
		t.Error("AccumulateCWorkers != XᵀX")
	}
}

func TestTwoPassIsTwoPasses(t *testing.T) {
	x := dataset.Toy()
	mem := matio.NewMem(x)
	if _, err := Compress(mem, 2); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Passes(); got != 2 {
		t.Errorf("plain SVD used %d passes, want 2", got)
	}
}

func TestCompressToyFullRankExact(t *testing.T) {
	x := dataset.Toy()
	s, err := Compress(matio.NewMem(x), 2) // rank is 2
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			got, err := s.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-x.At(i, j)) > 1e-9 {
				t.Errorf("cell (%d,%d) = %v, want %v", i, j, got, x.At(i, j))
			}
		}
	}
}

func TestCompressKZero(t *testing.T) {
	x := dataset.Toy()
	s, err := Compress(matio.NewMem(x), 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Cell(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("k=0 reconstruction = %v, want 0", v)
	}
	if s.StoredNumbers() != 0 {
		t.Errorf("k=0 StoredNumbers = %d, want 0", s.StoredNumbers())
	}
}

func TestCompressEmptyMatrixFails(t *testing.T) {
	if _, err := Compress(matio.NewMem(linalg.NewMatrix(0, 5)), 1); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestRowMatchesCells(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randMatrix(r, 10, 8)
	s, err := Compress(matio.NewMem(x), 3)
	if err != nil {
		t.Fatal(err)
	}
	row, err := s.Row(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range row {
		c, _ := s.Cell(4, j)
		if math.Abs(row[j]-c) > 1e-12 {
			t.Fatalf("Row/Cell disagree at column %d", j)
		}
	}
}

func TestCellErrors(t *testing.T) {
	x := dataset.Toy()
	s, _ := Compress(matio.NewMem(x), 1)
	if _, err := s.Cell(0, 99); err == nil {
		t.Error("column out of range accepted")
	}
	if _, err := s.Cell(99, 0); err == nil {
		t.Error("row out of range accepted")
	}
}

func TestSingleDiskAccessPerCell(t *testing.T) {
	// The paper's claim: with V and Λ pinned in memory and U row-major on
	// disk, one cell reconstruction = one disk access.
	x := dataset.GeneratePhone(dataset.PhoneConfig{
		N: 50, M: 30, Seed: 1, BusinessFrac: 0.5, ResidentialFrac: 0.4,
		ParetoAlpha: 1.5, NoiseLevel: 0.2, SeasonAmp: 0.2,
	})
	f, err := ComputeFactors(matio.NewMem(x))
	if err != nil {
		t.Fatal(err)
	}
	k := f.Clamp(5)
	dir := t.TempDir()
	upath := filepath.Join(dir, "u.smx")
	uw, err := matio.Create(upath, 50, k)
	if err != nil {
		t.Fatal(err)
	}
	err = ComputeU(matio.NewMem(x), f, k, func(i int, urow []float64) error {
		return uw.WriteRow(urow)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := uw.Close(); err != nil {
		t.Fatal(err)
	}
	uf, err := matio.Open(upath)
	if err != nil {
		t.Fatal(err)
	}
	defer uf.Close()
	s, err := New(f, k, uf)
	if err != nil {
		t.Fatal(err)
	}
	before := uf.Stats().RowReads()
	if _, err := s.Cell(17, 11); err != nil {
		t.Fatal(err)
	}
	if got := uf.Stats().RowReads() - before; got != 1 {
		t.Errorf("cell reconstruction used %d disk accesses, want exactly 1", got)
	}
}

func TestNewRejectsMismatchedU(t *testing.T) {
	x := dataset.Toy()
	f, _ := ComputeFactors(matio.NewMem(x))
	u := linalg.NewMatrix(7, 5) // wrong width for k=2
	if _, err := New(f, 2, matio.NewMem(u)); err == nil {
		t.Error("mismatched U width accepted")
	}
}

func TestKForBudget(t *testing.T) {
	// With n=1000, m=100: one component costs 1000+1+100 = 1101 numbers.
	// A 10% budget is 10000 numbers → k = 9.
	if got := KForBudget(1000, 100, 0.10); got != 9 {
		t.Errorf("KForBudget = %d, want 9", got)
	}
	if KForBudget(10, 10, 0) != 0 {
		t.Error("zero budget should give k=0")
	}
	if KForBudget(0, 10, 0.5) != 0 {
		t.Error("empty matrix should give k=0")
	}
	if got := KForBudget(10, 10, 100); got != 10 {
		t.Errorf("huge budget should clamp to m=10, got %d", got)
	}
}

func TestStoredNumbersEq9(t *testing.T) {
	if got := StoredNumbers(1000, 100, 9); got != 1000*9+9+9*100 {
		t.Errorf("StoredNumbers = %d", got)
	}
}

func TestCompressBudgetRespectsBudget(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := randMatrix(r, 200, 50)
	s, err := Compress(matio.NewMem(x), KForBudget(x.Rows(), x.Cols(), 0.10))
	if err != nil {
		t.Fatal(err)
	}
	if got := store.SpaceRatio(s); got > 0.10 {
		t.Errorf("space ratio %.4f exceeds budget 0.10", got)
	}
	if s.K() == 0 {
		t.Error("budget should afford at least one component")
	}
}

// Property: reconstruction error (Frobenius) decreases as k grows, and the
// store's cell values agree with the reference truncated SVD.
func TestCompressMonotoneErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randMatrix(r, 5+r.Intn(15), 3+r.Intn(6))
		mem := matio.NewMem(x)
		prev := math.Inf(1)
		factors, err := ComputeFactors(mem)
		if err != nil {
			return false
		}
		for k := 0; k <= factors.Rank(); k++ {
			s, err := CompressWithFactorsWorkers(mem, factors, k, 1)
			if err != nil {
				return false
			}
			var sse float64
			for i := 0; i < x.Rows(); i++ {
				row, err := s.Row(i, nil)
				if err != nil {
					return false
				}
				for j := range row {
					d := row[j] - x.At(i, j)
					sse += d * d
				}
			}
			if sse > prev+1e-6 {
				return false
			}
			prev = sse
		}
		return prev < 1e-8*math.Max(x.FrobeniusNorm(), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPhoneCompressionQuality(t *testing.T) {
	// Sanity: on phone-like data, 10% space should reconstruct well.
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(300))
	s, err := Compress(matio.NewMem(x), KForBudget(x.Rows(), x.Cols(), 0.10))
	if err != nil {
		t.Fatal(err)
	}
	var sse, dev float64
	mean := x.Mean()
	row := make([]float64, x.Cols())
	for i := 0; i < x.Rows(); i++ {
		got, err := s.Row(i, row)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			d := got[j] - x.At(i, j)
			sse += d * d
			dv := x.At(i, j) - mean
			dev += dv * dv
		}
	}
	rmspe := math.Sqrt(sse / dev)
	if rmspe > 0.5 {
		t.Errorf("RMSPE at 10%% space = %.3f, expected well under 0.5", rmspe)
	}
}
