package svd

import (
	"bytes"
	"path/filepath"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/exact"
	"seqstore/internal/matio"
	"seqstore/internal/store"
)

// TestRowMomentsIndex: every way a store is made indexes every whole
// 64-row block of its U — New (through Compress), SliceRows (aligned to the
// slice's own first row), the decoder at b = 8 and b = 4, a U on disk —
// and FoldIn indexes a block when it fills. Each entry, staged through
// AddBlock, yields the registers its rows yield through AddMoments.
func TestRowMomentsIndex(t *testing.T) {
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(200))
	s, err := Compress(matio.NewMem(x), 6)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, st *Store) {
		t.Helper()
		n, _ := st.Dims()
		idx := st.RowMoments()
		if idx.Len() != n/exact.BlockRows {
			t.Fatalf("%s: %d rows, %d blocks indexed", name, n, idx.Len())
		}
		k := st.K()
		for b := 0; b < idx.Len(); b++ {
			e, ok := idx.Block(b)
			if !ok {
				t.Fatalf("%s: block %d marked", name, b)
			}
			var viaRows, viaBlock exact.Stage
			rowAcc, rowG := make([]exact.Sum, k), make([]exact.Sum, k*k)
			blkAcc, blkG := make([]exact.Sum, k), make([]exact.Sum, k*k)
			viaRows.Reset(k, true)
			viaBlock.Reset(k, true)
			u := make([]float64, k)
			for i := b * exact.BlockRows; i < (b+1)*exact.BlockRows; i++ {
				if err := st.URow(i, u); err != nil {
					t.Fatal(err)
				}
				viaRows.AddMoments(rowAcc, rowG, u)
			}
			viaBlock.AddBlock(blkAcc, blkG, e)
			viaRows.Flush(rowAcc, rowG)
			viaBlock.Flush(blkAcc, blkG)
			for i := range rowAcc {
				if !rowAcc[i].Equal(&blkAcc[i]) {
					t.Fatalf("%s: block %d component %d differs from its rows", name, b, i)
				}
			}
			for i := range rowG {
				if !rowG[i].Equal(&blkG[i]) {
					t.Fatalf("%s: block %d Gram term %d differs from its rows", name, b, i)
				}
			}
		}
	}
	check("compressed", s)

	sl, err := s.SliceRows(10, 150)
	if err != nil {
		t.Fatal(err)
	}
	check("slice", sl)

	for _, prec := range []int{8, 4} {
		if err := s.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := store.NewWriter(&buf)
		if err := s.EncodePayload(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		d, err := DecodePayload(store.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		check("decoded", d)
	}

	n, k := 200, s.K()
	u := make([]float64, n*k)
	for i := 0; i < n; i++ {
		if err := s.URow(i, u[i*k:(i+1)*k]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "u.smx")
	fw, err := matio.Create(path, n, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := fw.WriteRow(u[i*k : (i+1)*k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	uf, err := matio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer uf.Close()
	f, err := ComputeFactors(matio.NewMem(x))
	if err != nil {
		t.Fatal(err)
	}
	disk, err := New(f, k, uf)
	if err != nil {
		t.Fatal(err)
	}
	check("disk", disk)

	for i := 0; i < 56; i++ {
		if _, _, err := s.FoldIn(x.Row(i)); err != nil {
			t.Fatal(err)
		}
		if got := s.RowMoments().Len(); got != (201+i)/exact.BlockRows {
			t.Fatalf("after %d folds (%d rows): %d blocks indexed", i+1, 201+i, got)
		}
	}
	check("folded", s)
}
