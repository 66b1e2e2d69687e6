package query

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/exact"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
)

// walkStores are the SVDD stores the delta walks are checked on: a
// 300×48 phone matrix compressed at b = 8, the same store through a b = 4
// file, and a row slice of each (a shard of the same factorization).
var walkStores = struct {
	once   sync.Once
	err    error
	names  []string
	stores []*core.Store
}{}

func deltaWalkStores(tb testing.TB) ([]string, []*core.Store) {
	tb.Helper()
	ws := &walkStores
	ws.once.Do(func() {
		cfg := dataset.DefaultPhoneConfig(300)
		cfg.M = 48
		b8, err := core.Compress(matio.NewMem(dataset.GeneratePhone(cfg)), core.Options{Budget: 0.25, Workers: 1})
		if err != nil {
			ws.err = err
			return
		}
		b4, err := roundTo4(b8)
		if err != nil {
			ws.err = err
			return
		}
		ws.names = []string{"b8", "b4", "b8-slice", "b4-slice"}
		ws.stores = []*core.Store{b8, b4}
		for _, s := range []*core.Store{b8, b4} {
			sl, err := s.SliceRows(37, 251)
			if err != nil {
				ws.err = err
				return
			}
			ws.stores = append(ws.stores, sl)
		}
	})
	if ws.err != nil {
		tb.Fatal(ws.err)
	}
	return ws.names, ws.stores
}

// roundTo4 is s as a b = 4 file of it loads: every stored number rounded
// to float32. s itself keeps b = 8: a whole-range slice is written.
func roundTo4(s *core.Store) (*core.Store, error) {
	n, _ := s.Dims()
	c, err := s.SliceRows(0, n)
	if err != nil {
		return nil, err
	}
	if err := c.SetPrecision(4); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, c); err != nil {
		return nil, err
	}
	r, err := store.Read(&buf)
	if err != nil {
		return nil, err
	}
	return r.(*core.Store), nil
}

// perDeltaFold is the fold the column-major view replaced: for each
// distinct selected row, its U row read and scaled by σ, and for each of
// its deltas in a selected column a Dot for the baseline b, the terms
// wt·δ and wt·(2bδ+δ²) added one by one. It also returns how many distinct
// selected cells hold a delta.
func perDeltaFold(tb testing.TB, s *core.Store, sel Selection) (sum, sumSq exact.Sum, cells int) {
	tb.Helper()
	_, m := s.Dims()
	rowMult, colMult := map[int]int{}, make([]int, m)
	for _, i := range sel.Rows {
		rowMult[i]++
	}
	for _, j := range sel.Cols {
		colMult[j]++
	}
	base := s.Base()
	sigma, v := base.Sigma(), base.V()
	u := make([]float64, len(sigma))
	for i, r := range rowMult {
		if err := base.URow(i, u); err != nil {
			tb.Fatal(err)
		}
		for c := range u {
			u[c] *= sigma[c]
		}
		s.RowDeltas(i, func(j int, d float64) {
			if cj := colMult[j]; cj > 0 {
				wt := float64(r * cj)
				b := linalg.Dot(u, v.Row(j))
				sum.Add(wt * d)
				sumSq.Add(wt * (2*b*d + d*d))
				cells++
			}
		})
	}
	return sum, sumSq, cells
}

// checkDeltaWalks forces each walk over sel on s and requires its sum and
// sumSq registers to equal the per-delta fold's. The row walk must probe
// exactly the deltas of the distinct selected rows, and the column walk
// the entries of its binary searches plus exactly the selected cells
// holding a delta.
func checkDeltaWalks(t *testing.T, s *core.Store, sel Selection) {
	t.Helper()
	wantSum, wantSq, cells := perDeltaFold(t, s, sel)
	dc, err := s.DeltaColumns()
	if err != nil {
		t.Fatal(err)
	}
	st := new(evalState)
	st.pl.reset(s, sel)
	dg := st.pl.buildDigest()
	var rowCost, search int64
	for _, run := range dg.rowRuns {
		a, b := dc.RowBounds(run.lo, run.hi)
		rowCost += int64(b - a)
	}
	for j, cj := range dg.colMult {
		if cj != 0 {
			search += int64(2 * len(dg.rowRuns) * searchReads(dc.Len(j)))
		}
	}
	for _, column := range []bool{false, true} {
		probed := st.foldCorrections(dg, dc, column, true)
		if !st.corr.sum.Equal(&wantSum) || !st.corr.sumSq.Equal(&wantSq) {
			t.Fatalf("column walk %v: registers (%g, %g) are not the per-delta fold's (%g, %g)",
				column, st.corr.sum.Value(), st.corr.sumSq.Value(), wantSum.Value(), wantSq.Value())
		}
		want := rowCost
		if column {
			want = search + int64(cells)
		}
		if probed != want {
			t.Fatalf("column walk %v probed %d deltas, want %d", column, probed, want)
		}
	}
}

// TestDeltaWalksAgree checks both delta walks against the per-delta fold
// they replaced, register for register, over every selection shape the
// digest distinguishes — one range, several runs, duplicates, descending,
// interleaved, one column and all columns — on b = 8 and b = 4 stores and
// row slices of them.
func TestDeltaWalksAgree(t *testing.T) {
	names, stores := deltaWalkStores(t)
	for si, s := range stores {
		n, m := s.Dims()
		if s.NumOutliers() < 4*m {
			t.Fatalf("%s holds %d deltas over %d columns: too few to search", names[si], s.NumOutliers(), m)
		}
		sels := []struct {
			name string
			sel  Selection
		}{
			{"range", Selection{Rows: seq(n/5, n-n/7), Cols: seq(3, m-5)}},
			{"runs", Selection{Rows: append(append(seq(0, 9), seq(20, 61)...), 70, 72, n-1), Cols: []int{1, 5, 9, 13, 40}}},
			{"duplicates", Selection{Rows: []int{4, 4, 5, 9, 9, 9, 30, 31, 30, n - 2}, Cols: []int{2, 7, 7, m - 1, 2, 20}}},
			{"descending", Selection{Rows: []int{n - 1, n - 2, n - 3, 50, 49, 12, 3, 0}, Cols: seq(0, m)}},
			{"interleaved", Selection{Rows: []int{10, 90, 11, 91, 12, 92, 40, 10, 13}, Cols: []int{30, 3, 17, 30}}},
			{"one-column", Selection{Rows: seq(0, n), Cols: []int{m / 2}}},
			{"all-columns", Selection{Rows: seq(n/3, n/2), Cols: All(m)}},
		}
		for _, sl := range sels {
			t.Run(fmt.Sprintf("%s/%s", names[si], sl.name), func(t *testing.T) {
				checkDeltaWalks(t, s, sl.sel)
			})
		}
	}
}

// FuzzDeltaWalks runs checkDeltaWalks on fuzzed selections: each pair of
// row bytes appends a run of up to 16 rows from a scaled start, so runs
// repeat, descend and interleave; each column byte selects a column (all
// columns when there are none); shape picks the store.
func FuzzDeltaWalks(f *testing.F) {
	f.Add([]byte{10, 15, 200, 3, 10, 2}, []byte{1, 2, 3, 40}, uint8(0))
	f.Add([]byte{250, 0, 128, 15, 0, 15}, []byte{}, uint8(1))
	f.Add([]byte{64, 9, 32, 9, 64, 9}, []byte{7, 7, 47}, uint8(2))
	f.Add([]byte{5, 1}, []byte{0}, uint8(3))
	f.Fuzz(func(t *testing.T, rowBytes, colBytes []byte, shape uint8) {
		_, stores := deltaWalkStores(t)
		s := stores[int(shape)%len(stores)]
		n, m := s.Dims()
		var sel Selection
		for p := 0; p+1 < len(rowBytes) && len(sel.Rows) < 4096; p += 2 {
			lo := int(rowBytes[p]) * n / 256
			for i := lo; i < min(n, lo+1+int(rowBytes[p+1])%16); i++ {
				sel.Rows = append(sel.Rows, i)
			}
		}
		if len(sel.Rows) == 0 {
			return
		}
		for _, b := range colBytes {
			sel.Cols = append(sel.Cols, int(b)%m)
		}
		if len(sel.Cols) == 0 {
			sel.Cols = All(m)
		}
		checkDeltaWalks(t, s, sel)
	})
}
