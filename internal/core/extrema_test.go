package core

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

// extremaEntry is one cell as the reference sorts it.
type extremaEntry struct {
	v   float64
	row uint32
}

// TestExtremaListsMatchSort holds the index of an SVDD store with §6.2
// zero rows and folded rows to a sort of its Row reconstruction: each
// column's low list is its L lowest cells of the rows not all +0,
// ascending, equal values in row order, and the high list the L highest,
// descending; the zero-row bits are the rows whose cells are all +0; no
// column is unordered. The build counts no U read, and a fold drops it.
func TestExtremaListsMatchSort(t *testing.T) {
	x := phoneSmall(600)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.2, Workers: 1, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ZeroRows()) == 0 {
		t.Fatal("fixture flagged no zero rows")
	}
	for r := 0; r < 5; r++ {
		if _, err := s.Fold(x.Row(r * 7)); err != nil {
			t.Fatal(err)
		}
	}
	reads := s.Base().UStats().RowReads()
	e, err := s.Extrema()
	if err != nil || e == nil {
		t.Fatalf("Extrema = %v, %v", e, err)
	}
	if got := s.Base().UStats().RowReads() - reads; got != 0 {
		t.Errorf("the build counted %d U reads", got)
	}
	n, m := s.Dims()
	cols := make([][]extremaEntry, m)
	for i := 0; i < n; i++ {
		row, err := s.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		zero := true
		for _, v := range row {
			zero = zero && math.Float64bits(v) == 0
		}
		if e.ZeroRow(i) != zero {
			t.Fatalf("row %d: ZeroRow %v, all +0 %v", i, e.ZeroRow(i), zero)
		}
		if s.IsZeroRow(i) && !zero {
			t.Fatalf("§6.2 zero row %d reconstructs to a nonzero cell", i)
		}
		for j, v := range row {
			if !zero {
				cols[j] = append(cols[j], extremaEntry{v, uint32(i)})
			}
		}
	}
	for j := range cols {
		if e.Unordered(j) {
			t.Errorf("column %d flagged unordered", j)
		}
		c := cols[j]
		slices.SortStableFunc(c, func(a, b extremaEntry) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})
		low := c[:ExtremaDepth]
		high := slices.Clone(c)
		slices.SortStableFunc(high, func(a, b extremaEntry) int {
			switch {
			case a.v > b.v:
				return -1
			case a.v < b.v:
				return 1
			}
			return int(a.row) - int(b.row)
		})
		high = high[:ExtremaDepth]
		for name, l := range map[string]struct {
			want []extremaEntry
			get  func(int) ([]float64, []uint32)
		}{"low": {low, e.Low}, "high": {high, e.High}} {
			vals, rows := l.get(j)
			if len(vals) != ExtremaDepth || len(rows) != ExtremaDepth {
				t.Fatalf("column %d %s list holds %d values, %d rows", j, name, len(vals), len(rows))
			}
			for x, w := range l.want {
				if math.Float64bits(vals[x]) != math.Float64bits(w.v) || rows[x] != w.row {
					t.Fatalf("column %d %s entry %d = (%v, %d), want (%v, %d)", j, name, x, vals[x], rows[x], w.v, w.row)
				}
			}
		}
	}
	if s.ExtremaBytes() == 0 {
		t.Fatal("no bytes reported for a built index")
	}
	if _, err := s.Fold(x.Row(3)); err != nil {
		t.Fatal(err)
	}
	if got := s.ExtremaBytes(); got != 0 {
		t.Errorf("a fold kept the %d-byte index", got)
	}
}

// TestExtremaFlagsUnorderedCells: a NaN or a −0 cell flags its column, a
// NaN enters neither list, and a +0 flags nothing.
func TestExtremaFlagsUnorderedCells(t *testing.T) {
	e := &Extrema{
		n:         make([]int32, 3),
		lowV:      make([]float64, 3*ExtremaDepth),
		lowR:      make([]uint32, 3*ExtremaDepth),
		highV:     make([]float64, 3*ExtremaDepth),
		highR:     make([]uint32, 3*ExtremaDepth),
		unordered: make([]uint64, 1),
	}
	e.offer(0, math.NaN(), 0)
	e.offer(1, math.Copysign(0, -1), 0)
	e.offer(2, 0, 0)
	if !e.Unordered(0) || !e.Unordered(1) || e.Unordered(2) {
		t.Errorf("unordered flags %v %v %v, want true true false", e.Unordered(0), e.Unordered(1), e.Unordered(2))
	}
	if v, _ := e.Low(0); len(v) != 0 {
		t.Errorf("a NaN entered column 0's list: %v", v)
	}
	if v, _ := e.Low(1); len(v) != 1 {
		t.Errorf("column 1's list holds %v, want its −0", v)
	}
}

// TestExtremaOnlyOverResidentU: a store of at most 2·L rows, or one whose U
// is on disk, keeps no index.
func TestExtremaOnlyOverResidentU(t *testing.T) {
	short, err := Compress(matio.NewMem(phoneSmall(2*ExtremaDepth)), Options{Budget: 0.3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := matio.NewMem(phoneSmall(400))
	f, err := svd.ComputeFactors(src)
	if err != nil {
		t.Fatal(err)
	}
	k := f.Clamp(5)
	path := filepath.Join(t.TempDir(), "u.smx")
	w, err := matio.Create(path, 400, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := svd.ComputeU(src, f, k, func(_ int, urow []float64) error { return w.WriteRow(urow) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	uf, err := matio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer uf.Close()
	onDisk, err := svd.New(f, k, uf)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"short": short, "on-disk": Plain(onDisk)} {
		if e, err := s.Extrema(); e != nil || err != nil {
			t.Errorf("%s: Extrema = %p, %v; want no index", name, e, err)
		}
	}
}

// BenchmarkExtremaBuild times the one-off build of the extremum index over
// the served workloads' store: the phone fixture at 20 000×366, SVDD at
// budget 0.10.
//
//	go test -run '^$' -bench ExtremaBuild ./internal/core
func BenchmarkExtremaBuild(b *testing.B) {
	s, err := Compress(matio.NewMem(dataset.GeneratePhone(dataset.DefaultPhoneConfig(20000))), Options{Budget: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.buildExtrema(); err != nil {
			b.Fatal(err)
		}
	}
}
