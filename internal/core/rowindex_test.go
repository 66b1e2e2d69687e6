package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"seqstore/internal/matio"
	"seqstore/internal/store"
)

// checkRowIndex asserts the row index's invariants against the hash table
// that serves Cell: N+1 offsets, every bucket strictly column-ascending,
// and the same (row, col, δ) set in both — through RowDeltas and through
// one DeltaSlab over every row.
func checkRowIndex(t *testing.T, s *Store) {
	t.Helper()
	n, m := s.Dims()
	if len(s.rowStart) != n+1 {
		t.Fatalf("rowStart holds %d offsets for %d rows, want %d", len(s.rowStart), n, n+1)
	}
	if int(s.rowStart[n]) != len(s.deltas) || len(s.cols) != len(s.deltas) || len(s.vals) != len(s.deltas) {
		t.Fatalf("index holds %d/%d/%d deltas, hash table %d", s.rowStart[n], len(s.cols), len(s.vals), len(s.deltas))
	}
	slab := s.DeltaSlab(0, n)
	if slab.Len() != len(s.deltas) {
		t.Fatalf("full slab holds %d deltas, hash table %d", slab.Len(), len(s.deltas))
	}
	seen := 0
	for i := 0; i < n; i++ {
		cols, vals := slab.Row(i)
		at, last := 0, -1
		s.RowDeltas(i, func(col int, delta float64) {
			if col <= last {
				t.Fatalf("row %d: column %d after %d", i, col, last)
			}
			last = col
			want, ok := s.deltas[uint64(i)*uint64(m)+uint64(col)]
			if !ok || math.Float64bits(want) != math.Float64bits(delta) {
				t.Fatalf("row %d col %d: index holds %v, hash table %v (present %v)", i, col, delta, want, ok)
			}
			if at >= len(cols) || int(cols[at]) != col || math.Float64bits(vals[at]) != math.Float64bits(delta) {
				t.Fatalf("row %d: slab and RowDeltas disagree at entry %d", i, at)
			}
			at++
			seen++
		})
		if at != len(cols) {
			t.Fatalf("row %d: slab holds %d deltas, RowDeltas visited %d", i, len(cols), at)
		}
	}
	if seen != len(s.deltas) {
		t.Fatalf("index visited %d deltas, hash table holds %d", seen, len(s.deltas))
	}
}

// TestRowIndexMatchesHashTable: however a store comes to be — compressed,
// decoded, sliced, grown by fold-ins — its row index and its hash table
// hold the same deltas.
func TestRowIndexMatchesHashTable(t *testing.T) {
	x, _ := matrixWithZeroRows(t)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumOutliers() == 0 {
		t.Fatal("fixture stored no outliers")
	}
	checkRowIndex(t, s)

	var buf bytes.Buffer
	if err := store.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	decoded, err := store.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRowIndex(t, decoded.(*Store))

	n, m := s.Dims()
	for _, r := range [][2]int{{0, n / 3}, {n / 3, n}, {n / 2, n / 2}} {
		slice, err := s.SliceRows(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		checkRowIndex(t, slice)
	}

	rng := rand.New(rand.NewSource(22))
	row := make([]float64, m)
	for f := 0; f < 12; f++ {
		for j := range row {
			row[j] = 0
		}
		// A few spikes the components cannot express, so deltas are stored
		// in error order and the bucket has to be re-sorted by column.
		for sp := 0; sp < 1+rng.Intn(6); sp++ {
			row[rng.Intn(m)] = 100 + 1000*rng.Float64()
		}
		if _, err := s.FoldIn(row, rng.Intn(6)-1); err != nil {
			t.Fatal(err)
		}
		checkRowIndex(t, s)
	}
	// A row that is all outliers: the longest bucket a fold-in can store.
	for j := range row {
		row[j] = 100 + 1000*rng.Float64()
	}
	idx, err := s.FoldIn(row, m)
	if err != nil {
		t.Fatal(err)
	}
	checkRowIndex(t, s)
	if cols, _ := s.DeltaSlab(idx, idx+1).Row(idx); len(cols) != m {
		t.Fatalf("all-outlier row holds %d deltas, want %d", len(cols), m)
	}
	if grown, _ := s.Dims(); grown != n+13 {
		t.Fatalf("store holds %d rows after 13 fold-ins of %d", grown, n)
	}
}

// TestRowIndexEdgeCases keeps what the map-backed index forgave: a row
// outside the store is an empty bucket, and a fold-in that stores no
// deltas — by request, because it was rolled back, or because it could be
// neither read back nor rolled back — leaves the index N+1 offsets long.
func TestRowIndexEdgeCases(t *testing.T) {
	t.Run("RowDeltasOutOfRange", func(t *testing.T) {
		s, err := Compress(matio.NewMem(phoneSmall(40)), Options{Budget: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		n, _ := s.Dims()
		for _, i := range []int{-1, -1 << 40, n, n + 1, 1 << 40} {
			before := s.RowProbes()
			s.RowDeltas(i, func(col int, _ float64) {
				t.Errorf("row %d outside %d rows yielded a delta at column %d", i, n, col)
			})
			if got := s.RowProbes() - before; got != 1 {
				t.Errorf("row %d: %d probes charged, want 1", i, got)
			}
		}
	})

	t.Run("FoldInWithoutDeltas", func(t *testing.T) {
		for _, maxDeltas := range []int{0, -3} {
			s, err := Compress(matio.NewMem(phoneSmall(40)), Options{Budget: 0.15})
			if err != nil {
				t.Fatal(err)
			}
			_, m := s.Dims()
			row := make([]float64, m)
			row[5] = 1e4
			idx, err := s.FoldIn(row, maxDeltas)
			if err != nil {
				t.Fatal(err)
			}
			checkRowIndex(t, s)
			s.RowDeltas(idx, func(int, float64) { t.Errorf("maxDeltas=%d stored a delta", maxDeltas) })
			if _, err := s.Row(idx, nil); err != nil {
				t.Errorf("maxDeltas=%d: folded row unreadable: %v", maxDeltas, err)
			}
		}
	})

	t.Run("FoldInRollbackFails", func(t *testing.T) {
		s, fu := buildStoreOverFailingU(t, phoneSmall(40), 6, func(fu *failingU) matio.RowReader {
			return appendOnlyU{RowReader: fu, fu: fu}
		})
		n0, m := s.Dims()
		row := make([]float64, m)
		row[3], row[40], row[11] = 42, -17, 9

		// The append succeeds, the read-back fails and so does the undo: the
		// row stays in the base, so it gets its (empty) bucket.
		idx, err := s.FoldIn(row, 4)
		if !errors.Is(err, errInjectedURead) || idx != n0 {
			t.Fatalf("fold-in: idx %d, err %v; want row %d reported with the read failure", idx, err, n0)
		}
		if n, _ := s.Dims(); n != n0+1 {
			t.Fatalf("store holds %d rows, want %d: the rollback was meant to fail", n, n0+1)
		}
		checkRowIndex(t, s)
		s.RowDeltas(idx, func(int, float64) { t.Error("unreadable row stored a delta") })

		fu.failFrom = n0 + 2
		if idx, err = s.FoldIn(row, 4); err != nil || idx != n0+1 {
			t.Fatalf("next fold-in: idx %d, err %v; want %d", idx, err, n0+1)
		}
		checkRowIndex(t, s)
		if s.NumOutliers() == 0 {
			t.Fatal("next fold-in stored no deltas")
		}
	})

	t.Run("FoldUndoFold", func(t *testing.T) {
		s, fu := buildStoreWithFailingU(t, phoneSmall(40), 6)
		n0, m := s.Dims()
		row := make([]float64, m)
		row[3], row[40], row[11] = 42, -17, 9

		fu.failFrom = n0 + 1
		if _, err := s.FoldIn(row, 4); err != nil {
			t.Fatal(err)
		}
		checkRowIndex(t, s)
		held := s.NumOutliers()
		if held == 0 {
			t.Fatal("first fold-in stored no deltas")
		}

		// The append succeeds, the read-back fails, the U row is undone:
		// the index must not have moved.
		if idx, err := s.FoldIn(row, 4); !errors.Is(err, errInjectedURead) || idx != -1 {
			t.Fatalf("second fold-in: idx %d, err %v; want a rolled-back read failure", idx, err)
		}
		checkRowIndex(t, s)
		if s.NumOutliers() != held {
			t.Fatalf("rolled-back fold-in changed the delta count %d → %d", held, s.NumOutliers())
		}

		fu.failFrom = n0 + 2
		idx, err := s.FoldIn(row, 4)
		if err != nil {
			t.Fatal(err)
		}
		if idx != n0+1 {
			t.Fatalf("fold after undo landed at %d, want %d", idx, n0+1)
		}
		checkRowIndex(t, s)
		for _, j := range []int{3, 40, 11} {
			if v, err := s.Cell(idx, j); err != nil || math.Abs(v-row[j]) > 1e-6 {
				t.Errorf("Cell(%d,%d) = %v, %v; want %v (delta-pinned)", idx, j, v, err, row[j])
			}
		}
		got, err := s.Row(idx, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			want, err := s.Cell(idx, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got[j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("Row(%d)[%d] = %v, Cell = %v", idx, j, got[j], want)
			}
		}
	})
}
