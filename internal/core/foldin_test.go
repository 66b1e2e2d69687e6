package core

import (
	"errors"
	"math"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

func TestFoldInWithDeltasRepairsWorstCells(t *testing.T) {
	x := phoneSmall(60)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	n0, m := s.Dims()

	// A new customer whose pattern the components cannot express: a single
	// giant spike.
	newRow := make([]float64, m)
	newRow[17] = 1e4
	idx, err := s.FoldIn(newRow, 4)
	if err != nil {
		t.Fatal(err)
	}
	if idx != n0 {
		t.Fatalf("fold-in index = %d, want %d", idx, n0)
	}
	// The spike cell must be pinned exactly by a delta.
	v, err := s.Cell(idx, 17)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1e4) > 1e-6 {
		t.Errorf("spike cell = %v, want 10000 (delta-pinned)", v)
	}
}

func TestFoldInZeroDeltas(t *testing.T) {
	x := phoneSmall(40)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumOutliers()
	_, m := s.Dims()
	if _, err := s.FoldIn(make([]float64, m), 0); err != nil {
		t.Fatal(err)
	}
	if s.NumOutliers() != before {
		t.Error("maxDeltas=0 stored deltas anyway")
	}
}

func TestFoldInPreservesExistingCells(t *testing.T) {
	x := phoneSmall(40)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	wantRow, err := s.Row(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), wantRow...)
	cfg := dataset.DefaultPhoneConfig(1)
	cfg.M = x.Cols()
	extra := dataset.GeneratePhone(cfg)
	if _, err := s.FoldIn(extra.Row(0), 3); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Row(11, nil)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("existing row changed at col %d", j)
		}
	}
}

// failingU is a Mem-backed U whose reads fail from row failFrom on, so a
// fold-in's append can succeed while the post-append reconstruction read
// fails — the exact window of the historical partial-mutation bug.
type failingU struct {
	*matio.Mem
	failFrom int
}

var errInjectedURead = errors.New("injected U read failure")

func (f *failingU) ReadRow(i int, dst []float64) error {
	if i >= f.failFrom {
		return errInjectedURead
	}
	return f.Mem.ReadRow(i, dst)
}

// appendOnlyU hides failingU's TruncateRows: a fold-in can be appended to
// it but never undone — the "rollback also failed" window.
type appendOnlyU struct {
	matio.RowReader
	fu *failingU
}

func (a appendOnlyU) AppendRow(row []float64) int { return a.fu.AppendRow(row) }

// buildStoreWithFailingU assembles an SVDD store whose base U backing
// rejects reads of any folded-in row.
func buildStoreWithFailingU(t *testing.T, x *linalg.Matrix, k int) (*Store, *failingU) {
	t.Helper()
	return buildStoreOverFailingU(t, x, k, func(fu *failingU) matio.RowReader { return fu })
}

// buildStoreOverFailingU is buildStoreWithFailingU with the backing handed
// to the base through wrap.
func buildStoreOverFailingU(t *testing.T, x *linalg.Matrix, k int, wrap func(*failingU) matio.RowReader) (*Store, *failingU) {
	t.Helper()
	f, err := svd.ComputeFactors(matio.NewMem(x))
	if err != nil {
		t.Fatal(err)
	}
	k = f.Clamp(k)
	n, m := x.Dims()
	// Pass-2 projection by hand: u_i = x_i · V[:, :k] · Σ⁻¹.
	u := linalg.NewMatrix(n, k)
	for i := 0; i < n; i++ {
		urow := u.Row(i)
		for j := 0; j < m; j++ {
			xv := x.At(i, j)
			if xv == 0 {
				continue
			}
			vrow := f.V.Row(j)
			for c := 0; c < k; c++ {
				urow[c] += xv * vrow[c]
			}
		}
		for c := 0; c < k; c++ {
			urow[c] /= f.Sigma[c]
		}
	}
	fu := &failingU{Mem: matio.NewMem(u), failFrom: n}
	base, err := svd.New(f, k, wrap(fu))
	if err != nil {
		t.Fatal(err)
	}
	return newStore(base, nil, nil, 0, Diagnostics{ChosenK: k}), fu
}

// TestFoldInRollsBackOnReconstructionFailure pins the fixed error contract:
// when the post-append read fails, the append is undone — the store keeps
// its old dimensions, the returned index is -1 (never 0), and a later
// fold-in lands at the same index the failed one briefly occupied.
func TestFoldInRollsBackOnReconstructionFailure(t *testing.T) {
	x := phoneSmall(40)
	s, fu := buildStoreWithFailingU(t, x, 6)
	n0, m := s.Dims()

	row := make([]float64, m)
	row[3] = 42
	idx, err := s.FoldIn(row, 4)
	if !errors.Is(err, errInjectedURead) {
		t.Fatalf("err = %v, want injected U read failure", err)
	}
	if idx != -1 {
		t.Errorf("failed fold-in returned index %d, want -1", idx)
	}
	if n, _ := s.Dims(); n != n0 {
		t.Errorf("store grew to %d rows despite failed fold-in, want %d", n, n0)
	}
	if got := s.NumOutliers(); got != 0 {
		t.Errorf("failed fold-in left %d deltas behind", got)
	}

	// Heal the backing: the next fold-in must reuse the rolled-back slot.
	fu.failFrom = n0 + 1
	idx, err = s.FoldIn(row, 4)
	if err != nil {
		t.Fatal(err)
	}
	if idx != n0 {
		t.Errorf("post-rollback fold-in index = %d, want %d", idx, n0)
	}
	if v, err := s.Cell(idx, 3); err != nil || math.Abs(v-42) > 1e-6 {
		t.Errorf("Cell(%d,3) = %v, %v; want 42 (delta-pinned)", idx, v, err)
	}
}

// TestFoldInNoDeltasSkipsReconstruction proves the maxDeltas<=0 path never
// performs the post-append read, so it succeeds even on a read-degraded
// backing.
func TestFoldInNoDeltasSkipsReconstruction(t *testing.T) {
	x := phoneSmall(30)
	s, _ := buildStoreWithFailingU(t, x, 5)
	n0, m := s.Dims()
	idx, err := s.FoldIn(make([]float64, m), 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != n0 {
		t.Errorf("index = %d, want %d", idx, n0)
	}
}
