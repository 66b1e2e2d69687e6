package ingest

import (
	"context"
	"math"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// requireCellsMatchRows asserts that every cell of st is bit-equal to the
// same entry of its row: the two reconstructions a server serves point reads
// through must never disagree, not even in the last bit.
func requireCellsMatchRows(t *testing.T, st store.Store) {
	t.Helper()
	n, m := st.Dims()
	for i := 0; i < n; i++ {
		row, err := st.Row(i, nil)
		if err != nil {
			t.Fatalf("Row(%d): %v", i, err)
		}
		for j := 0; j < m; j++ {
			v, err := st.Cell(i, j)
			if err != nil {
				t.Fatalf("Cell(%d, %d): %v", i, j, err)
			}
			if math.Float64bits(v) != math.Float64bits(row[j]) {
				t.Fatalf("Cell(%d, %d) = %v, Row(%d)[%d] = %v", i, j, v, i, j, row[j])
			}
		}
	}
}

// TestCellMatchesRowBits pins "a cell is bit-equal to its row's entry" on
// every store kind a point read can land on.
func TestCellMatchesRowBits(t *testing.T) {
	x := phoneData(60)
	for _, i := range []int{0, 13, 59} { // §6.2 zero rows, both ends included
		row := x.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	// The budget buys k ≥ 4: below that, linalg.Dot's four partial sums
	// degenerate to one serial sum and a differently ordered cell would
	// still agree with its row.
	svdd := func(t *testing.T) *core.Store {
		s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.45, FlagZeroRows: true})
		if err != nil {
			t.Fatal(err)
		}
		if s.NumOutliers() == 0 || len(s.ZeroRows()) < 3 {
			t.Fatalf("%d deltas, zero rows %v: want both", s.NumOutliers(), s.ZeroRows())
		}
		return s
	}

	t.Run("svd", func(t *testing.T) {
		s, err := svd.Compress(matio.NewMem(x), 6)
		if err != nil {
			t.Fatal(err)
		}
		requireCellsMatchRows(t, s)
	})
	t.Run("svdd", func(t *testing.T) { requireCellsMatchRows(t, svdd(t)) })
	for _, name := range []string{"golden_v1_svd", "golden_v1_svdd", "golden_v2_svdd_bloom"} {
		t.Run(name, func(t *testing.T) {
			s, _, err := store.LoadLabeled("../store/testdata/" + name + ".sqz")
			if err != nil {
				t.Fatal(err)
			}
			requireCellsMatchRows(t, s)
		})
	}
	t.Run("svdd after 100 fold-ins", func(t *testing.T) {
		s := svdd(t)
		fresh := phoneData(160)
		for i := 60; i < 160; i++ {
			if _, err := s.FoldIn(fresh.Row(i), 4); err != nil {
				t.Fatal(err)
			}
		}
		requireCellsMatchRows(t, s)
	})
	t.Run("slices against their parent", func(t *testing.T) {
		parent := svdd(t)
		_, m := parent.Dims()
		for _, r := range [][2]int{{0, 30}, {30, 60}, {10, 47}} {
			slice, err := parent.SliceRows(r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			requireCellsMatchRows(t, slice)
			for i := r[0]; i < r[1]; i++ {
				row, err := parent.Row(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < m; j++ {
					if v, err := slice.Cell(i-r[0], j); err != nil || math.Float64bits(v) != math.Float64bits(row[j]) {
						t.Fatalf("slice [%d,%d) cell (%d, %d) = %v, %v; parent row says %v", r[0], r[1], i-r[0], j, v, err, row[j])
					}
				}
			}
		}
	})
	t.Run("tiered hot and cold", func(t *testing.T) {
		ti := openTiered(t, svdd(t), t.TempDir(), Options{DisableBackground: true})
		defer ti.Close()
		fresh := phoneData(80)
		ctx := context.Background()
		if _, err := ti.AppendBatch(ctx, nil, [][]float64{fresh.Row(60), fresh.Row(61), fresh.Row(62)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ti.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, err := ti.AppendBatch(ctx, nil, [][]float64{fresh.Row(63), fresh.Row(64)}); err != nil {
			t.Fatal(err)
		}
		if n, _ := ti.Dims(); ti.HotRows() != 2 || ti.IsHot(62) || !ti.IsHot(n-1) {
			t.Fatalf("%d hot rows of %d: want folded cold rows and two hot ones", ti.HotRows(), n)
		}
		requireCellsMatchRows(t, ti)
	})
}
