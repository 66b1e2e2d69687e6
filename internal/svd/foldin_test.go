package svd

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/matio"
)

func TestFoldInExistingSubspace(t *testing.T) {
	// A new row inside the retained subspace reconstructs exactly.
	x := dataset.Toy()
	s, err := Compress(matio.NewMem(x), 2)
	if err != nil {
		t.Fatal(err)
	}
	// "New customer": double of ABC Inc.'s pattern — pure weekday blob.
	newRow := []float64{2, 2, 2, 0, 0}
	idx, recon, err := s.FoldIn(newRow)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 7 {
		t.Fatalf("fold-in index = %d, want 7", idx)
	}
	if n, _ := s.Dims(); n != 8 {
		t.Errorf("rows after fold-in = %d", n)
	}
	got, err := s.Row(idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range newRow {
		if math.Abs(got[j]-newRow[j]) > 1e-9 {
			t.Errorf("folded row col %d = %v, want %v", j, got[j], newRow[j])
		}
		// The reconstruction FoldIn computed is the one the row reads back.
		if math.Float64bits(recon[j]) != math.Float64bits(got[j]) {
			t.Errorf("col %d: fold-in reconstruction %v, read back %v", j, recon[j], got[j])
		}
	}
	// Existing rows are untouched.
	v, _ := s.Cell(3, 0)
	if math.Abs(v-5) > 1e-9 {
		t.Errorf("existing cell disturbed: %v", v)
	}
}

func TestFoldInOutOfSubspace(t *testing.T) {
	// A row orthogonal to the retained components reconstructs as ~0 — the
	// documented limitation.
	x := dataset.Toy()
	s, err := Compress(matio.NewMem(x), 1) // only the weekday pattern kept
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := s.FoldIn([]float64{0, 0, 0, 4, 4}) // pure weekend caller
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Row(idx, nil)
	for j, v := range got {
		if math.Abs(v) > 1e-9 {
			t.Errorf("out-of-subspace fold-in col %d = %v, want ≈0", j, v)
		}
	}
}

func TestFoldInValidation(t *testing.T) {
	x := dataset.Toy()
	s, _ := Compress(matio.NewMem(x), 2)
	if _, _, err := s.FoldIn([]float64{1, 2}); err == nil {
		t.Error("wrong-length row accepted")
	}
}

func TestFoldInDiskBackedRejected(t *testing.T) {
	x := dataset.Toy()
	f, err := ComputeFactors(matio.NewMem(x))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	upath := filepath.Join(dir, "u.smx")
	uw, _ := matio.Create(upath, 7, 2)
	err = ComputeU(matio.NewMem(x), f, 2, func(i int, urow []float64) error {
		return uw.WriteRow(urow)
	})
	if err != nil {
		t.Fatal(err)
	}
	uw.Close()
	uf, err := matio.Open(upath)
	if err != nil {
		t.Fatal(err)
	}
	defer uf.Close()
	s, err := New(f, 2, uf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.FoldIn([]float64{1, 1, 1, 0, 0}); !errors.Is(err, ErrNotAppendable) {
		t.Errorf("disk-backed fold-in: %v", err)
	}
}

func TestFoldInSpaceAccounting(t *testing.T) {
	x := dataset.Toy()
	s, _ := Compress(matio.NewMem(x), 2)
	before := s.StoredNumbers()
	s.FoldIn([]float64{1, 1, 1, 0, 0})
	// One more U row: +k numbers.
	if got := s.StoredNumbers(); got != before+2 {
		t.Errorf("StoredNumbers after fold-in = %d, want %d", got, before+2)
	}
}
