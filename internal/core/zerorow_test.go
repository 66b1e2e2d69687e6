package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// matrixWithZeroRows builds phone-like data (with natural zero customers
// disabled) where exactly the listed rows are zero.
func matrixWithZeroRows(t *testing.T) (*linalg.Matrix, []int) {
	t.Helper()
	cfg := dataset.DefaultPhoneConfig(80)
	cfg.M = 60
	cfg.ZeroFrac = 0
	x := dataset.GeneratePhone(cfg)
	zeros := []int{3, 17, 41, 79}
	for _, i := range zeros {
		row := x.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	return x, zeros
}

func TestZeroRowsFlagged(t *testing.T) {
	x, zeros := matrixWithZeroRows(t)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	got := s.ZeroRows()
	if len(got) != len(zeros) {
		t.Fatalf("flagged %v, want %v", got, zeros)
	}
	for i, z := range zeros {
		if int(got[i]) != z {
			t.Errorf("ZeroRows[%d] = %d, want %d", i, got[i], z)
		}
	}
}

func TestZeroRowsReconstructWithoutUAccess(t *testing.T) {
	x, zeros := matrixWithZeroRows(t)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Base().UStats().RowReads()
	for _, i := range zeros {
		v, err := s.Cell(i, 10)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Errorf("zero row %d cell = %v", i, v)
		}
		row, err := s.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range row {
			if row[j] != 0 {
				t.Fatalf("zero row %d col %d = %v", i, j, row[j])
			}
		}
	}
	if got := s.Base().UStats().RowReads() - before; got != 0 {
		t.Errorf("zero-row lookups performed %d U accesses, want 0", got)
	}
	if _, zeroHits := s.ProbeStats(); zeroHits == 0 {
		t.Error("zero-row hits not counted")
	}
}

func TestZeroRowsRangeChecks(t *testing.T) {
	x, _ := matrixWithZeroRows(t)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cell(3, 999); err == nil {
		t.Error("column range not checked on zero row")
	}
}

func TestZeroRowsBudgetStillRespected(t *testing.T) {
	x, _ := matrixWithZeroRows(t)
	for _, budget := range []float64{0.05, 0.10, 0.20} {
		s, err := Compress(matio.NewMem(x), Options{Budget: budget, FlagZeroRows: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := store.SpaceRatio(s); got > budget+1e-9 {
			t.Errorf("budget %.2f: space ratio %.4f with zero flags", budget, got)
		}
	}
}

func TestZeroRowsOffByDefault(t *testing.T) {
	x, _ := matrixWithZeroRows(t)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ZeroRows()) != 0 {
		t.Error("zero rows flagged without opt-in")
	}
	// Zero rows still reconstruct as (numerically) zero through plain SVD:
	// their projections vanish.
	v, _ := s.Cell(3, 10)
	if v != 0 {
		t.Errorf("zero row through base = %v, want exactly 0", v)
	}
}

func TestZeroRowsSerializationRoundTrip(t *testing.T) {
	x, zeros := matrixWithZeroRows(t)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := store.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gs := got.(*Store)
	if len(gs.ZeroRows()) != len(zeros) {
		t.Fatalf("zero rows lost: %v", gs.ZeroRows())
	}
	if gs.StoredNumbers() != s.StoredNumbers() {
		t.Error("StoredNumbers changed")
	}
	before := gs.Base().UStats().RowReads()
	if v, _ := gs.Cell(17, 100); v != 0 {
		t.Error("decoded zero row not zero")
	}
	if gs.Base().UStats().RowReads() != before {
		t.Error("decoded zero row performed a U access")
	}
}

// TestZeroRowBitset pins the §6.2 flags' one structure, an exact bitset of
// ⌈N/64⌉ words: the rows on either side of a word boundary and at both ends
// answer exactly, a flagged row's cells cost no U access and no delta probe,
// rows FoldIn appends are never zero (even an all-zero one), a slice whose
// bounds cut a word shifts its flags exactly, and a file that flags a row
// past N is corrupt.
func TestZeroRowBitset(t *testing.T) {
	const n, m = 130, 24
	zeros := []int{0, 63, 64, n - 1}
	cfg := dataset.DefaultPhoneConfig(n)
	cfg.M = m
	cfg.ZeroFrac = 0
	x := dataset.GeneratePhone(cfg)
	for _, i := range zeros {
		clear(x.Row(i))
	}
	compress := func(t *testing.T) *Store {
		t.Helper()
		s, err := Compress(matio.NewMem(x), Options{Budget: 0.20, FlagZeroRows: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.zeroBits) != (n+63)/64 {
			t.Fatalf("bitset holds %d words for %d rows", len(s.zeroBits), n)
		}
		return s
	}
	isZero := func(i int) bool { return slices.Contains(zeros, i) }

	t.Run("boundaries", func(t *testing.T) {
		s := compress(t)
		for _, tc := range []struct {
			row  int
			want bool
		}{
			{0, true}, {1, false}, {62, false}, {63, true}, {64, true}, {65, false},
			{n - 2, false}, {n - 1, true}, {n, false}, {-1, false}, {-64, false},
		} {
			if got := s.IsZeroRow(tc.row); got != tc.want {
				t.Errorf("IsZeroRow(%d) = %v, want %v", tc.row, got, tc.want)
			}
		}
		for _, i := range zeros {
			reads := s.Base().UStats().RowReads()
			probes0, hits0 := s.ProbeStats()
			if v, err := s.Cell(i, m-1); err != nil || v != 0 {
				t.Fatalf("Cell(%d, %d) = %v, %v on a zero row", i, m-1, v, err)
			}
			if row, err := s.Row(i, nil); err != nil || slices.ContainsFunc(row, func(v float64) bool { return v != 0 }) {
				t.Fatalf("Row(%d) = %v, %v on a zero row", i, row, err)
			}
			if got := s.Base().UStats().RowReads() - reads; got != 0 {
				t.Errorf("zero row %d cost %d U reads", i, got)
			}
			probes, hits := s.ProbeStats()
			if probes != probes0 || hits != hits0+2 {
				t.Errorf("zero row %d: %d probes and %d zero-row hits, want 0 and 2", i, probes-probes0, hits-hits0)
			}
		}
	})

	t.Run("after100FoldIns", func(t *testing.T) {
		s := compress(t)
		rng := rand.New(rand.NewSource(100))
		fresh := make([]float64, m)
		for f := 0; f < 100; f++ {
			clear(fresh)
			if f%2 == 1 {
				copy(fresh, x.Row(1+rng.Intn(62)))
			}
			idx, err := s.FoldIn(fresh, rng.Intn(4))
			if err != nil {
				t.Fatal(err)
			}
			if s.IsZeroRow(idx) {
				t.Fatalf("folded row %d (fold %d) reads as a zero row", idx, f)
			}
			probes0, hits0 := s.ProbeStats()
			if _, err := s.Cell(idx, 0); err != nil {
				t.Fatal(err)
			}
			if probes, hits := s.ProbeStats(); probes != probes0+1 || hits != hits0 {
				t.Fatalf("folded row %d: cell cost %d probes and %d zero-row hits, want 1 and 0", idx, probes-probes0, hits-hits0)
			}
		}
		for i := 0; i < n+100; i++ {
			if got := s.IsZeroRow(i); got != isZero(i) {
				t.Fatalf("after 100 fold-ins IsZeroRow(%d) = %v, want %v", i, got, isZero(i))
			}
		}
	})

	t.Run("SliceRows", func(t *testing.T) {
		s := compress(t)
		for _, r := range [][2]int{{0, 64}, {1, 64}, {60, 70}, {63, 65}, {64, n}, {65, n - 1}, {2, 3}} {
			slice, err := s.SliceRows(r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			var want []int32
			for i := r[0]; i < r[1]; i++ {
				if got := slice.IsZeroRow(i - r[0]); got != isZero(i) {
					t.Errorf("slice [%d,%d): IsZeroRow(%d) = %v, parent row %d is zero: %v", r[0], r[1], i-r[0], got, i, isZero(i))
				}
				if isZero(i) {
					want = append(want, int32(i-r[0]))
				}
			}
			if got := slice.ZeroRows(); !slices.Equal(got, want) {
				t.Errorf("slice [%d,%d): ZeroRows = %v, want %v", r[0], r[1], got, want)
			}
			if slice.IsZeroRow(r[1] - r[0]) {
				t.Errorf("slice [%d,%d): the row past its end reads as zero", r[0], r[1])
			}
		}
	})

	t.Run("decodeRowPastN", func(t *testing.T) {
		s := compress(t)
		s.zeroList = append(s.ZeroRows(), n)
		var buf bytes.Buffer
		if err := store.Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Read(&buf); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("a zero row at N decodes with error %v, want ErrCorrupt", err)
		}
	})
}

func TestAllZeroMatrixWithFlags(t *testing.T) {
	// Degenerate: an all-zero matrix has rank 0, so compression must fail
	// cleanly (no components to keep).
	x := linalg.NewMatrix(10, 8)
	_, err := Compress(matio.NewMem(x), Options{Budget: 0.5, FlagZeroRows: true})
	if err == nil {
		t.Error("rank-0 matrix accepted")
	}
}

func TestZeroFlagsDropLightestDeltas(t *testing.T) {
	// With flags on, the number of deltas may shrink but never grow, and
	// the surviving deltas are the heaviest ones.
	x, _ := matrixWithZeroRows(t)
	mem := matio.NewMem(x)
	f, err := svd.ComputeFactors(mem)
	if err != nil {
		t.Fatal(err)
	}
	with, err := CompressWithFactors(mem, f, Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := CompressWithFactors(mem, f, Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if with.NumOutliers() > without.NumOutliers() {
		t.Errorf("flags grew deltas: %d > %d", with.NumOutliers(), without.NumOutliers())
	}
}
