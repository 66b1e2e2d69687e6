package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"seqstore/internal/matio"
	"seqstore/internal/pqueue"
	"seqstore/internal/store"
)

// refDeltas is the test's own record of what a store must hold, kept apart
// from the store: cell (row, col) → δ, filled from the items the test
// offered and from the deltas it works out each fold-in has to pin.
type refDeltas map[[2]int]float64

func refOf(items []pqueue.Item) refDeltas {
	ref := refDeltas{}
	for _, it := range items {
		ref[[2]int{it.Row, it.Col}] = it.Delta
	}
	return ref
}

// snapshotDeltas reads a reference back from the store, for stores whose
// items the test did not choose (pass 2 picks a compression's). What is
// checked against it is the index's agreement with itself, not its content.
func snapshotDeltas(s *Store) refDeltas {
	ref := refDeltas{}
	s.Deltas(func(row, col int, delta float64) { ref[[2]int{row, col}] = delta })
	return ref
}

// fold records what FoldIn(row, maxDeltas), which landed at idx, must have
// stored: the maxDeltas largest non-negligible |row − reconstruction|.
func (ref refDeltas) fold(t *testing.T, s *Store, idx int, row []float64, maxDeltas int) {
	t.Helper()
	if maxDeltas <= 0 {
		return
	}
	recon, err := s.base.Row(idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	var errs []pqueue.Item
	for j, xv := range row {
		if d := xv - recon[j]; math.Abs(d) >= 1e-12 {
			errs = append(errs, pqueue.Item{Row: idx, Col: j, Delta: d})
		}
	}
	sort.Slice(errs, func(a, b int) bool { return math.Abs(errs[a].Delta) > math.Abs(errs[b].Delta) })
	for _, it := range errs[:min(len(errs), maxDeltas)] {
		ref[[2]int{it.Row, it.Col}] = it.Delta
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkDeltaIndex asserts that s holds exactly ref and serves it the same
// way through every reader: rowStart is N+1 offsets over arrays of len(ref)
// entries, every bucket is strictly column-ascending, RowDeltas, DeltaSlab
// and Deltas walk the same triplets, every Cell and every Row entry is bit
// for bit the base's value plus the reference delta (Cell and Row reach the
// base by different arithmetic, so each is held to its own base value), and
// the probe counters count exactly one point lookup per Cell outside a zero
// row and one bucket read per Row.
func checkDeltaIndex(t *testing.T, s *Store, ref refDeltas) {
	t.Helper()
	n, m := s.Dims()
	if len(s.rowStart) != n+1 || s.rowStart[0] != 0 {
		t.Fatalf("rowStart holds %d offsets from %d for %d rows, want %d from 0", len(s.rowStart), s.rowStart[0], n, n+1)
	}
	if int(s.rowStart[n]) != len(ref) || len(s.cols) != len(ref) || len(s.vals) != len(ref) || s.NumOutliers() != len(ref) {
		t.Fatalf("index holds %d/%d/%d deltas (NumOutliers %d), reference %d",
			s.rowStart[n], len(s.cols), len(s.vals), s.NumOutliers(), len(ref))
	}
	if want := s.base.StoredNumbers() + int64(len(ref))*int64(s.outlierCost) + int64(len(s.zeroList)); s.StoredNumbers() != want {
		t.Fatalf("StoredNumbers = %d, want %d", s.StoredNumbers(), want)
	}
	slab := s.DeltaSlab(0, n)
	if slab.Len() != len(ref) {
		t.Fatalf("full slab holds %d deltas, reference %d", slab.Len(), len(ref))
	}
	var walked [][2]int
	s.Deltas(func(row, col int, delta float64) {
		if want, ok := ref[[2]int{row, col}]; !ok || !sameBits(want, delta) {
			t.Fatalf("Deltas yields (%d, %d, %v), reference %v (present %v)", row, col, delta, want, ok)
		}
		walked = append(walked, [2]int{row, col})
	})
	if len(walked) != len(ref) || !sort.SliceIsSorted(walked, func(a, b int) bool {
		return walked[a][0] < walked[b][0] || walked[a][0] == walked[b][0] && walked[a][1] < walked[b][1]
	}) {
		t.Fatalf("Deltas walked %d of %d triplets, or not in (row, col) order", len(walked), len(ref))
	}

	for i := 0; i < n; i++ {
		cols, vals := slab.Row(i)
		at, last := 0, -1
		s.RowDeltas(i, func(col int, delta float64) {
			if col <= last {
				t.Fatalf("row %d: column %d after %d", i, col, last)
			}
			last = col
			if want, ok := ref[[2]int{i, col}]; !ok || !sameBits(want, delta) {
				t.Fatalf("row %d col %d: index holds %v, reference %v (present %v)", i, col, delta, want, ok)
			}
			if at >= len(cols) || int(cols[at]) != col || !sameBits(vals[at], delta) {
				t.Fatalf("row %d: slab and RowDeltas disagree at entry %d", i, at)
			}
			at++
		})
		if at != len(cols) {
			t.Fatalf("row %d: slab holds %d deltas, RowDeltas visited %d", i, len(cols), at)
		}
		if s.isZeroRow(i) {
			if at != 0 {
				t.Fatalf("flagged zero row %d holds %d deltas", i, at)
			}
			continue
		}

		baseRow, err := s.base.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		probes0, zeroHits0 := s.ProbeStats()
		rows0 := s.RowProbes()
		got, err := s.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m; j++ {
			d := ref[[2]int{i, j}] // 0 off the reference, which is what delta() adds there
			if want := baseRow[j] + d; !sameBits(got[j], want) {
				t.Fatalf("Row(%d)[%d] = %v, want base %v + δ %v", i, j, got[j], baseRow[j], d)
			}
			baseCell, err := s.base.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			cell, err := s.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if want := baseCell + d; !sameBits(cell, want) {
				t.Fatalf("Cell(%d,%d) = %v, want base %v + δ %v", i, j, cell, baseCell, d)
			}
		}
		probes, zeroHits := s.ProbeStats()
		if probes, zeroHits = probes-probes0, zeroHits-zeroHits0; probes != int64(m) || zeroHits != 0 {
			t.Fatalf("row %d: %d cells cost %d probes and %d zero-row hits, want %d and 0", i, m, probes, zeroHits, m)
		}
		if got := s.RowProbes() - rows0; got != 1 {
			t.Fatalf("row %d: one Row and %d Cells read %d buckets, want 1", i, m, got)
		}
	}
}

// TestRowIndexMatchesReference: however a store comes to be — assembled
// from items in any order, decoded, sliced, grown by fold-ins — its one
// delta index holds exactly the triplets it was given.
func TestRowIndexMatchesReference(t *testing.T) {
	x, _ := matrixWithZeroRows(t)
	compressed, err := Compress(matio.NewMem(x), Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if compressed.NumOutliers() == 0 || compressed.NumOutliers() != compressed.Diagnostics().Gamma {
		t.Fatalf("fixture stored %d outliers, pass 2 chose %d", compressed.NumOutliers(), compressed.Diagnostics().Gamma)
	}
	checkDeltaIndex(t, compressed, snapshotDeltas(compressed))
	compressed.Deltas(func(row, col int, _ float64) {
		if v, err := compressed.Cell(row, col); err != nil || math.Abs(v-x.At(row, col)) > 1e-9 {
			t.Fatalf("delta cell (%d, %d) reconstructs to %v, %v; the data holds %v", row, col, v, err, x.At(row, col))
		}
	})

	// The same base under items of the test's choosing: distinct cells off
	// the zero rows, offered in no order at all.
	n, m := compressed.Dims()
	rng := rand.New(rand.NewSource(24))
	var items []pqueue.Item
	for _, cell := range rng.Perm(n * m)[:n*m/12] {
		if i := cell / m; !compressed.isZeroRow(i) {
			items = append(items, pqueue.Item{Row: i, Col: cell % m, Delta: 100 * rng.NormFloat64()})
		}
	}
	s := newStore(compressed.base, items, compressed.ZeroRows(), DefaultOutlierCost, compressed.diag)
	ref := refOf(items)
	checkDeltaIndex(t, s, ref)

	var buf bytes.Buffer
	if err := store.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	decoded, err := store.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkDeltaIndex(t, decoded.(*Store), ref)

	for _, r := range [][2]int{{0, n / 3}, {n / 3, n}, {n / 2, n / 2}} {
		rows0 := s.RowProbes()
		slice, err := s.SliceRows(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := s.RowProbes() - rows0; got != 0 {
			t.Errorf("SliceRows charged its parent %d bucket reads", got)
		}
		sliceRef := refDeltas{}
		for cell, d := range ref {
			if cell[0] >= r[0] && cell[0] < r[1] {
				sliceRef[[2]int{cell[0] - r[0], cell[1]}] = d
			}
		}
		checkDeltaIndex(t, slice, sliceRef)
	}

	// A seeded fold sequence on a store of its own (the slices above share
	// the compressed base's V; fold-ins append to U).
	s, err = Compress(matio.NewMem(x), Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	ref = snapshotDeltas(s)
	held := len(ref)
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
		maxDeltas := rng.Intn(6) - 1
		idx, err := s.FoldIn(row, maxDeltas)
		if err != nil {
			t.Fatal(err)
		}
		ref.fold(t, s, idx, row, maxDeltas)
		checkDeltaIndex(t, s, ref)
	}
	if len(ref) == held {
		t.Fatal("twelve fold-ins stored no deltas")
	}
	// A row that is all outliers: the longest bucket a fold-in can store.
	for j := range row {
		row[j] = 100 + 1000*rng.Float64()
	}
	idx, err := s.FoldIn(row, m)
	if err != nil {
		t.Fatal(err)
	}
	ref.fold(t, s, idx, row, m)
	checkDeltaIndex(t, s, ref)
	if cols, _ := s.DeltaSlab(idx, idx+1).Row(idx); len(cols) != m {
		t.Fatalf("all-outlier row holds %d deltas, want %d", len(cols), m)
	}
	if grown, _ := s.Dims(); grown != n+13 {
		t.Fatalf("store holds %d rows after 13 fold-ins of %d", grown, n)
	}

	// And what the grown store writes, it reads back.
	buf.Reset()
	if err := store.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	decoded, err = store.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkDeltaIndex(t, decoded.(*Store), ref)
}

// TestRowIndexEdgeCases: a row outside the store is an empty bucket, and a
// fold-in that stores no deltas by request leaves the index N+1 offsets long
// and holding what it held.
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
			ref := snapshotDeltas(s)
			_, m := s.Dims()
			row := make([]float64, m)
			row[5] = 1e4
			idx, err := s.FoldIn(row, maxDeltas)
			if err != nil {
				t.Fatal(err)
			}
			checkDeltaIndex(t, s, ref)
			s.RowDeltas(idx, func(int, float64) { t.Errorf("maxDeltas=%d stored a delta", maxDeltas) })
			if _, err := s.Row(idx, nil); err != nil {
				t.Errorf("maxDeltas=%d: folded row unreadable: %v", maxDeltas, err)
			}
		}
	})
}

// TestDecodeDeltaKeyOrder: the delta keys of a .sqz may come in any order —
// older writers are not assumed sorted — but each only once. The hash table
// decode once filled made a repeated key silently last-wins; in a bucket it
// would be two entries for one cell, so it is corruption, named by its key.
func TestDecodeDeltaKeyOrder(t *testing.T) {
	compressed, err := Compress(matio.NewMem(phoneSmall(12)), Options{Budget: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	n, m := compressed.Dims()
	items := []pqueue.Item{{Row: 2, Col: 7, Delta: 1.5}, {Row: 2, Col: 30, Delta: -2}, {Row: 9, Col: 0, Delta: 4}, {Row: 9, Col: 1, Delta: 8}}
	for _, tc := range []struct {
		name   string
		order  []int // the key stream: indices into items
		dupKey int   // the key stored twice, −1 when none is
	}{
		{"ascending", []int{0, 1, 2, 3}, -1},
		{"descending", []int{3, 2, 1, 0}, -1},
		{"rows-interleaved", []int{2, 1, 3, 0}, -1},
		{"adjacent-repeat", []int{0, 0, 1, 2, 3}, 2*m + 7},
		{"repeat-across-the-stream", []int{2, 0, 1, 3, 2}, 9 * m},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(compressed.base, nil, nil, DefaultOutlierCost, compressed.diag)
			// EncodePayload streams bucket after bucket, so the whole key
			// stream goes into row 0's, each "column" a full cell key.
			for _, at := range tc.order {
				it := items[at]
				s.cols, s.vals = append(s.cols, int32(it.Row*m+it.Col)), append(s.vals, it.Delta)
			}
			for i := 1; i <= n; i++ {
				s.rowStart[i] = uint32(len(s.cols))
			}
			var buf bytes.Buffer
			if err := store.Write(&buf, s); err != nil {
				t.Fatal(err)
			}
			decoded, err := store.Read(&buf)
			if tc.dupKey >= 0 {
				want := fmt.Sprintf("delta key %d ", tc.dupKey)
				if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), want) {
					t.Fatalf("decode = %v, want store.ErrCorrupt naming %q", err, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checkDeltaIndex(t, decoded.(*Store), refOf(items))
		})
	}
}
