package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/trace"
)

// The extremum index (core.Extrema, lookup) answers a min or max from each
// column's sorted extreme cells. These tests hold it to the naive fold over
// store.Row bit for bit, on stores built to hold what it could get wrong.

// extremaFixture is the stores the index is checked on, with the naive
// reconstruction of each: pruneStores' seven (exact-zero ties, §6.2 zero
// rows, a NaN delta, an overflowing σ with ±Inf and NaN cells among them), a row slice of each (a
// shard of the same factorization), and the spiked SVDD store through a
// b = 4 file.
var extremaFixture = struct {
	once   sync.Once
	names  []string
	stores []store.Store
	recons []*linalg.Matrix
}{}

func extremaStores(t *testing.T) ([]string, []store.Store, []*linalg.Matrix) {
	t.Helper()
	fx := &extremaFixture
	fx.once.Do(func() {
		add := func(name string, s store.Store) {
			fx.names = append(fx.names, name)
			fx.stores = append(fx.stores, s)
			fx.recons = append(fx.recons, naiveRecon(t, s))
		}
		stores := pruneStores(t)
		for _, name := range []string{"svd", "svdd-spikes", "zero-rows", "foldin", "zeros", "nan-delta", "overflow"} {
			s := stores[name]
			add(name, s)
			n, _ := s.Dims()
			add(name+"-slice", sliceStore(t, s, n/7, n-n/5))
		}
		b4, err := roundTo4(stores["svdd-spikes"].(*core.Store))
		if err != nil {
			t.Fatal(err)
		}
		add("svdd-spikes-b4", b4)
	})
	if len(fx.stores) == 0 {
		t.Fatal("extrema fixture failed to build")
	}
	return fx.names, fx.stores, fx.recons
}

// extremaSelections adds to pruneSelections the shapes the index walks
// differently: one column, interleaved rows, and short row ranges, whose
// rows are missing from most columns' lists and so leave columns open.
func extremaSelections(n, m int) map[string]Selection {
	sels := pruneSelections(n, m)
	sels["one-column"] = Selection{Rows: All(n), Cols: []int{m / 3}}
	sels["interleaved"] = Selection{Rows: []int{10, n - 10, 11, n - 11, 12, n / 2, 10, 13}, Cols: []int{m - 1, 3, 17, m - 1}}
	sels["one-row"] = Selection{Rows: []int{n / 3}, Cols: All(m)}
	for _, lo := range []int{0, n / 4, n/2 + 3, n - 9} {
		sels[fmt.Sprintf("rows-%d", lo)] = Selection{Rows: seq(lo, lo+9), Cols: seq(1, m-1)}
	}
	return sels
}

// indexOutcome reports how lookup treats (agg, sel) on s: whether the index
// decides it, and how many columns it leaves to the projection.
func indexOutcome(s store.Store, agg Aggregate, sel Selection) (indexed bool, open int, err error) {
	st := getState()
	defer st.release()
	_, m := s.Dims()
	st.pl.reset(s, &BatchItem{Sel: sel}, m)
	if st.pl.fac == nil {
		return false, 0, nil
	}
	err = st.pl.lookup(agg == Max)
	return st.pl.indexed, len(st.pl.cols), err
}

// checkExtrema evaluates min and max of sel on s lone, batched and as a
// partial at workers {1, 3, 8} and holds each to the naive fold of recon;
// an indexed answer's partial is the projected one's: the count and the one
// extremum. It reports how lookup treated the two aggregates.
func checkExtrema(t *testing.T, name string, s store.Store, recon *linalg.Matrix, sel Selection) (answered, open int) {
	t.Helper()
	items := []BatchItem{{Agg: Min, Sel: sel}, {Agg: Max, Sel: sel}}
	for _, it := range items {
		want, err := EvaluateMatrix(recon, it.Agg, sel)
		if err != nil {
			t.Fatal(err)
		}
		indexed, cols, err := indexOutcome(s, it.Agg, sel)
		if err != nil {
			t.Fatal(err)
		}
		if indexed && cols == 0 {
			answered++
		} else if indexed {
			open++
		}
		for _, workers := range []int{1, 3, 8} {
			opts := Options{Workers: workers}
			got, err := EvaluateOpts(s, it.Agg, sel, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameValue(got, want) {
				t.Errorf("%s/%v/w%d: %v (%#x), naive %v (%#x); indexed %v, %d open",
					name, it.Agg, workers, got, math.Float64bits(got), want, math.Float64bits(want), indexed, cols)
			}
			p, err := EvaluatePartial(s, it.Agg, sel, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := &Partial{Agg: it.Agg, NumCells: int64(sel.NumCells()), N: int64(sel.NumCells()), Min: math.Inf(1), Max: math.Inf(-1)}
			if it.Agg == Min {
				ref.Min = p.Min
			} else {
				ref.Max = p.Max
			}
			gb, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			rb, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, rb) || !sameValue(got, p.Min) && !sameValue(got, p.Max) {
				t.Errorf("%s/%v/w%d: partial %+v is not the count and the one extremum %v", name, it.Agg, workers, p, got)
			}
			batch, err := EvaluateBatch(s, append(items, items...), opts)
			if err != nil {
				t.Fatal(err)
			}
			for idx, r := range batch {
				if items[idx%2].Agg == it.Agg && (r.Err != nil || !sameValue(r.Value, want)) {
					t.Errorf("%s/%v/w%d: batch item %d %v (%v), naive %v", name, it.Agg, workers, idx, r.Value, r.Err, want)
				}
			}
		}
	}
	return answered, open
}

// TestExtremaIndexMatchesNaive holds min and max through the extremum
// index to EvaluateMatrix over store.Row bit for bit, on every fixture
// store and selection shape, and checks that the fixture exercises both the
// index's lone answers and its projection of open columns.
func TestExtremaIndexMatchesNaive(t *testing.T) {
	names, stores, recons := extremaStores(t)
	answered, open := 0, 0
	for si, s := range stores {
		n, m := s.Dims()
		for selName, sel := range extremaSelections(n, m) {
			a, o := checkExtrema(t, names[si]+"/"+selName, s, recons[si], sel)
			answered, open = answered+a, open+o
		}
	}
	t.Logf("%d answers from the index alone, %d with open columns projected", answered, open)
	if answered == 0 || open == 0 {
		t.Errorf("the index answered %d alone and %d with open columns: a path goes unchecked", answered, open)
	}
}

// TestExtremaIndexLedgerMatchesExplain: an indexed min or max charges what
// EXPLAIN predicts — nothing and no chunk when the index answers alone, a
// projection's reads when it leaves columns open.
func TestExtremaIndexLedgerMatchesExplain(t *testing.T) {
	names, stores, _ := extremaStores(t)
	for si, s := range stores {
		n, m := s.Dims()
		for selName, sel := range extremaSelections(n, m) {
			for _, agg := range []Aggregate{Min, Max} {
				for _, workers := range []int{1, 3} {
					ex, err := ExplainQuery(s, agg, sel, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					tr := trace.New("t", "/test")
					if _, err := EvaluateOpts(s, agg, sel, Options{Workers: workers, Ctx: trace.NewContext(context.Background(), tr)}); err != nil {
						t.Fatal(err)
					}
					c := tr.Ledger.Snapshot()
					if ex.EstRowsRead != c.RowsRead || ex.EstDiskAccesses != c.DiskAccesses ||
						ex.EstPagesTouched != c.PagesTouched || ex.EstDeltasProbed != c.DeltasProbed ||
						int64(ex.Chunks) != c.WorkerChunks {
						t.Errorf("%s/%s/%v/w%d: explain %+v, ledger %+v", names[si], selName, agg, workers, *ex, c)
					}
				}
			}
		}
	}
}

// TestExtremaAllZeroRows: on a store whose every row is all +0 no cell is
// listed, and a min or max is the +0 the rows hold.
func TestExtremaAllZeroRows(t *testing.T) {
	const n, m = 3 * core.ExtremaDepth, 6
	v := linalg.NewMatrix(m, 1)
	for j := 0; j < m; j++ {
		v.Set(j, 0, 1)
	}
	base, err := svd.New(&svd.Factors{Rows: n, Cols: m, Sigma: []float64{1}, V: v}, 1, matio.NewMem(linalg.NewMatrix(n, 1)))
	if err != nil {
		t.Fatal(err)
	}
	s := core.Plain(base)
	recon := naiveRecon(t, s)
	for _, sel := range []Selection{{Rows: All(n), Cols: All(m)}, {Rows: []int{5, 9}, Cols: []int{2}}} {
		if indexed, open, err := indexOutcome(s, Min, sel); err != nil || !indexed || open != 0 {
			t.Fatalf("lookup: indexed %v, %d open, %v; want an answer from the zero rows", indexed, open, err)
		}
		checkExtrema(t, "all-zero", s, recon, sel)
	}
}

// TestExtremaBuiltOnceConcurrently: four goroutines asking a fresh store
// for its extremum index get one index, built once, of 24·L bytes per
// column plus the counts, the column flags and the zero-row bits.
func TestExtremaBuiltOnceConcurrently(t *testing.T) {
	s := pruneStores(t)["svdd-spikes"].(*core.Store)
	n, m := s.Dims()
	got := make([]*core.Extrema, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := s.Extrema()
			if err != nil {
				t.Error(err)
			}
			got[g] = e
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] == nil || got[g] != got[0] {
			t.Fatalf("goroutine %d got index %p, goroutine 0 %p", g, got[g], got[0])
		}
	}
	if want := 24*core.ExtremaDepth*m + 4*m + 8*((m+63)/64) + 8*((n+63)/64); s.ExtremaBytes() != want {
		t.Errorf("index holds %d bytes, want %d", s.ExtremaBytes(), want)
	}
}

// FuzzExtremaIndex runs checkExtrema on fuzzed selections: each pair of row
// bytes appends a run of up to 16 rows from a scaled start, so runs repeat,
// descend and interleave; each column byte selects a column (all columns
// when there are none); shape picks the fixture store.
func FuzzExtremaIndex(f *testing.F) {
	f.Add([]byte{10, 15, 200, 3, 10, 2}, []byte{1, 2, 3, 39}, uint8(0))
	f.Add([]byte{250, 0, 128, 15, 0, 15}, []byte{}, uint8(9))
	f.Add([]byte{64, 9, 32, 9, 64, 9}, []byte{7, 7, 30}, uint8(10))
	f.Add([]byte{5, 1}, []byte{0}, uint8(12))
	f.Fuzz(func(t *testing.T, rowBytes, colBytes []byte, shape uint8) {
		names, stores, recons := extremaStores(t)
		si := int(shape) % len(stores)
		n, m := stores[si].Dims()
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
		checkExtrema(t, names[si], stores[si], recons[si], sel)
	})
}
