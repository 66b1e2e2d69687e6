package seqstore

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
)

func TestFoldInFacadeSVDD(t *testing.T) {
	x := GeneratePhone(100)
	st, err := Compress(x, Options{Method: SVDD, Budget: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	n0, m := st.Dims()
	newCustomer := x.Row(5) // same pattern as an existing customer
	idx, err := st.FoldIn(newCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if idx != n0 {
		t.Errorf("index = %d, want %d", idx, n0)
	}
	if n, _ := st.Dims(); n != n0+1 {
		t.Errorf("rows = %d, want %d", n, n0+1)
	}
	got, err := st.Row(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != m {
		t.Fatalf("row length %d", len(got))
	}
	// Reconstruction of a same-pattern customer should be about as good as
	// the original row's reconstruction.
	orig, _ := st.Row(5)
	var dNew, dOld float64
	for j := 0; j < m; j++ {
		dNew += math.Abs(got[j] - newCustomer[j])
		dOld += math.Abs(orig[j] - x.At(5, j))
	}
	if dNew > 3*dOld+1e-9 {
		t.Errorf("fold-in reconstruction much worse than original: %v vs %v", dNew, dOld)
	}
}

func TestFoldInFacadeSVD(t *testing.T) {
	x := GeneratePhone(80)
	st, err := Compress(x, Options{Method: SVD, Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.FoldIn(x.Row(3)); err != nil {
		t.Fatal(err)
	}
}

func TestFoldInFacadeUnsupported(t *testing.T) {
	x := GeneratePhone(80)
	st, err := Compress(x, Options{Method: DCT, Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.FoldIn(x.Row(0)); err == nil {
		t.Error("DCT fold-in accepted")
	}
}

// TestFoldInExtendsRowLabels pins the stale-labels fix: a fold-in on a
// labeled store appends an empty row label, so RowLabels, Dims and a
// save/reopen round trip all stay in agreement.
func TestFoldInExtendsRowLabels(t *testing.T) {
	x := GeneratePhone(60)
	st, err := Compress(x, Options{Method: SVDD, Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	n0, _ := st.Dims()
	rows := make([]string, n0)
	for i := range rows {
		rows[i] = fmt.Sprintf("cust-%03d", i)
	}
	if err := st.SetLabels(rows, nil); err != nil {
		t.Fatal(err)
	}
	idx, err := st.FoldIn(x.Row(2))
	if err != nil {
		t.Fatal(err)
	}
	labels := st.RowLabels()
	if len(labels) != n0+1 {
		t.Fatalf("RowLabels length %d after fold-in, want %d", len(labels), n0+1)
	}
	if labels[idx] != "" {
		t.Errorf("folded-in row label = %q, want empty", labels[idx])
	}
	// Pre-existing labels still resolve to their original rows.
	if i, err := st.RowIndex("cust-002"); err != nil || i != 2 {
		t.Errorf("RowIndex(cust-002) = %d, %v", i, err)
	}

	// Save/reopen must round-trip the grown store + labels (this failed
	// label validation before the fix).
	path := filepath.Join(t.TempDir(), "folded.sqz")
	if err := st.Save(path); err != nil {
		t.Fatalf("save after fold-in: %v", err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after fold-in: %v", err)
	}
	if n, _ := re.Dims(); n != n0+1 {
		t.Errorf("reopened rows = %d, want %d", n, n0+1)
	}
	if got := re.RowLabels(); len(got) != n0+1 {
		t.Errorf("reopened RowLabels length %d, want %d", len(got), n0+1)
	}
	want, _ := st.Row(idx)
	got, err := re.Row(idx)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
			t.Fatalf("folded row differs after round trip at col %d", j)
		}
	}
}

// TestFoldInConcurrentWithQueries hammers FoldIn against AggregateContext,
// Cell and Row at several worker counts; run under -race this pins the
// facade's write-lock contract (fold-ins never race in-flight queries).
func TestFoldInConcurrentWithQueries(t *testing.T) {
	x := GeneratePhone(60)
	// One store shared across the worker sub-tests: each round of fold-ins
	// grows it further, which only adds coverage.
	st, err := Compress(x, Options{Method: SVDD, Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			n0, m := st.Dims()
			const foldIns = 24
			var wg sync.WaitGroup
			wg.Add(1 + workers)
			go func() {
				defer wg.Done()
				for f := 0; f < foldIns; f++ {
					if _, err := st.FoldIn(x.Row(f % 10)); err != nil {
						t.Errorf("fold-in %d: %v", f, err)
						return
					}
				}
			}()
			for w := 0; w < workers; w++ {
				go func(seed int64) {
					defer wg.Done()
					rows, cols := RandomSelection(n0, m, 0.05, seed)
					for q := 0; q < 25; q++ {
						if _, err := st.AggregateContext(context.Background(), Avg, rows, cols,
							AggOptions{Workers: 2}); err != nil {
							t.Errorf("aggregate: %v", err)
							return
						}
						if _, err := st.Cell(q%n0, q%m); err != nil {
							t.Errorf("cell: %v", err)
							return
						}
						if _, err := st.Row(q % n0); err != nil {
							t.Errorf("row: %v", err)
							return
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()
			if n, _ := st.Dims(); n != n0+foldIns {
				t.Errorf("rows = %d after %d fold-ins, want %d", n, foldIns, n0+foldIns)
			}
		})
	}
}
