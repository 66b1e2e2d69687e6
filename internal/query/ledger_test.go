package query

import (
	"context"
	"math"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/matio"
	"seqstore/internal/trace"
)

// TestLedgerMatchesUStats pins the per-request cost attribution against the
// global matio counters: for a single traced evaluation, the ledger's
// disk_accesses must equal the store's RowReads delta (the paper's
// one-row-one-block model), and rows_read / worker_chunks / pages_touched
// must be populated. A batch of overlapping items is held to the same
// equality over U on disk and resident U, and its ledger is exactly its
// items' lone ledgers together on both.
func TestLedgerMatchesUStats(t *testing.T) {
	s := fileBackedSVD(t, 64)
	n, m := s.Dims()
	sel := Selection{Rows: seq(0, n), Cols: seq(0, m)}
	items := batchOverlappingItems(n, m)

	for name, bs := range map[string]*core.Store{"file": s, "resident": allocProbeStore(t, 64)} {
		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers}
			before := bs.Base().UStats().RowReads()
			batch := tracedLedger(func(ctx context.Context) {
				opts.Ctx = ctx
				results, err := EvaluateBatch(bs, items, opts)
				if err != nil {
					t.Fatal(err)
				}
				for idx, r := range results {
					if r.Err != nil {
						t.Fatalf("%s/w%d item %d: %v", name, workers, idx, r.Err)
					}
				}
			})
			if delta := bs.Base().UStats().RowReads() - before; batch.DiskAccesses != delta {
				t.Errorf("%s/w%d batch: ledger disk accesses %d != stats row reads %d",
					name, workers, batch.DiskAccesses, delta)
			}
			lone := tracedLedger(func(ctx context.Context) {
				opts.Ctx = ctx
				for _, it := range items {
					if _, err := EvaluateOpts(bs, it.Agg, it.Sel, opts); err != nil {
						t.Fatal(err)
					}
				}
			})
			if batch != lone {
				t.Errorf("%s/w%d: batch ledger %+v != its items' lone ledgers %+v", name, workers, batch, lone)
			}
		}
	}

	for _, agg := range []Aggregate{Sum, StdDev, Min} {
		for _, workers := range []int{1, 4} {
			tr := trace.New("t", "/test")
			ctx := trace.NewContext(context.Background(), tr)
			before := s.Base().UStats().RowReads()
			if _, err := EvaluateOpts(s, agg, sel, Options{Workers: workers, Ctx: ctx}); err != nil {
				t.Fatalf("%v/w%d: %v", agg, workers, err)
			}
			delta := s.Base().UStats().RowReads() - before
			cost := tr.Ledger.Snapshot()
			if cost.DiskAccesses != delta {
				t.Errorf("%v/w%d: ledger disk accesses %d != stats row reads %d",
					agg, workers, cost.DiskAccesses, delta)
			}
			// The 64 rows are one block of the moment index, which a
			// factored sum or stddev stages without reading a row.
			want := int64(n)
			if agg != Min {
				want = 0
			}
			if cost.RowsRead != want {
				t.Errorf("%v/w%d: rows read %d, want %d", agg, workers, cost.RowsRead, want)
			}
			if cost.WorkerChunks < 1 {
				t.Errorf("%v/w%d: no worker chunks", agg, workers)
			}
			if want == 0 {
				if cost.PagesTouched != 0 {
					t.Errorf("%v/w%d: pages touched %d with no row read", agg, workers, cost.PagesTouched)
				}
			} else if cost.PagesTouched < 1 || cost.PagesTouched > cost.RowsRead {
				t.Errorf("%v/w%d: pages touched %d outside [1, %d]",
					agg, workers, cost.PagesTouched, cost.RowsRead)
			}
		}
	}
}

// TestUntracedEvaluationUnaffected: without a trace on the context the same
// evaluation runs and returns identical results (the nil-ledger path).
func TestUntracedEvaluationUnaffected(t *testing.T) {
	s := fileBackedSVD(t, 32)
	n, m := s.Dims()
	sel := Selection{Rows: seq(0, n), Cols: seq(0, m)}
	want, err := EvaluateOpts(s, Sum, sel, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("t", "/test")
	got, err := EvaluateOpts(s, Sum, sel, Options{Workers: 2, Ctx: trace.NewContext(context.Background(), tr)})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("traced evaluation changed the result: %v != %v", got, want)
	}
}

// tracedLedger runs fn under a fresh trace and returns its ledger.
func tracedLedger(fn func(ctx context.Context)) trace.LedgerSnapshot {
	tr := trace.New("t", "/test")
	fn(trace.NewContext(context.Background(), tr))
	return tr.Ledger.Snapshot()
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// zeroRowStore is an SVDD store with §6.2 zero-row flagging on, over a
// matrix holding three isolated all-zero rows and a run of six.
func zeroRowStore(t *testing.T) (s *core.Store, isolated []int, runLo, runHi int) {
	t.Helper()
	x := testMatrix()
	isolated, runLo, runHi = []int{3, 17, 40}, 50, 56
	zero := append(seq(runLo, runHi), isolated...)
	for _, i := range zero {
		clear(x.Row(i))
	}
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range zero {
		if !s.IsZeroRow(i) {
			t.Fatalf("row %d not flagged zero", i)
		}
	}
	return s, isolated, runLo, runHi
}

// tracedEval evaluates under a fresh trace and returns the value with the
// executed ledger.
func tracedEval(t *testing.T, s *core.Store, agg Aggregate, sel Selection, workers int) (float64, trace.LedgerSnapshot) {
	t.Helper()
	tr := trace.New("t", "/test")
	v, err := EvaluateOpts(s, agg, sel, Options{Workers: workers, Ctx: trace.NewContext(context.Background(), tr)})
	if err != nil {
		t.Fatalf("%v/w%d: %v", agg, workers, err)
	}
	return v, tr.Ledger.Snapshot()
}

// TestZeroFlaggedRows covers the §6.2 zero-row flags in the query engine:
// the one cost rule (an isolated zero-flagged row is answered from its flag
// under every plan; inside a scan it is scanned), which changes cost and
// never bits, and which EXPLAIN predicts exactly.
func TestZeroFlaggedRows(t *testing.T) {
	s, isolated, runLo, runHi := zeroRowStore(t)
	n, m := s.Dims()
	// Non-zero rows; every isolated zero row stays isolated when added.
	nonzero := append(append([]int{0, 1}, seq(5, 16)...), seq(20, 31)...)
	mixed := append(append([]int{0, 1, 3}, seq(5, 18)...), append(seq(20, 31), append([]int{40}, seq(48, 58)...)...)...)
	sels := map[string]Selection{
		"full":     {Rows: seq(0, n), Cols: seq(0, m)},
		"mixed":    {Rows: mixed, Cols: []int{2, 9, 9, m - 1}},
		"isolated": {Rows: isolated, Cols: seq(0, m)},
	}
	for name, sel := range sels {
		for _, agg := range allAggregates {
			want, err := EvaluateNaive(s, agg, sel)
			if err != nil {
				t.Fatal(err)
			}
			half := len(sel.Rows) / 2
			for _, workers := range []int{1, 3, 8} {
				got, cost := tracedEval(t, s, agg, sel, workers)
				if math.Abs(got-want) > aggTolerance(agg, want) {
					t.Errorf("%s/%v/w%d: %v, naive %v", name, agg, workers, got, want)
				}
				var parts []*Partial
				for _, rows := range [][]int{sel.Rows[:half], sel.Rows[half:]} {
					p, err := EvaluatePartial(s, agg, Selection{Rows: rows, Cols: sel.Cols}, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, p)
				}
				merged, err := MergePartials(agg, parts)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(merged) != math.Float64bits(got) {
					t.Errorf("%s/%v/w%d: merged %v != single-node %v", name, agg, workers, merged, got)
				}
				ex, err := ExplainQuery(s, agg, sel, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if ex.EstRowsRead != cost.RowsRead || ex.EstDiskAccesses != cost.DiskAccesses ||
					ex.EstPagesTouched != cost.PagesTouched || ex.EstDeltasProbed != cost.DeltasProbed {
					t.Errorf("%s/%v/w%d: estimate (rows %d, disk %d, pages %d, deltas %d) != ledger (rows %d, disk %d, pages %d, deltas %d)",
						name, agg, workers,
						ex.EstRowsRead, ex.EstDiskAccesses, ex.EstPagesTouched, ex.EstDeltasProbed,
						cost.RowsRead, cost.DiskAccesses, cost.PagesTouched, cost.DeltasProbed)
				}
			}
		}
	}

	// The shortcut changes cost, never bits: adding isolated zero-flagged
	// rows to a selection leaves the factored sum untouched.
	cols := seq(0, m)
	base, _ := tracedEval(t, s, Sum, Selection{Rows: nonzero, Cols: cols}, 1)
	with, _ := tracedEval(t, s, Sum, Selection{Rows: append(append([]int(nil), nonzero...), isolated...), Cols: cols}, 1)
	if math.Float64bits(base) != math.Float64bits(with) {
		t.Errorf("sum over S ∪ Z = %v, over S = %v", with, base)
	}

	// Projected (Min) and factored (Sum, StdDev) plans charge alike.
	for _, agg := range []Aggregate{Min, Sum, StdDev} {
		_, cost := tracedEval(t, s, agg, sels["isolated"], 1)
		if cost.RowsRead != int64(len(isolated)) || cost.DiskAccesses != 0 || cost.PagesTouched != 0 {
			t.Errorf("%v over isolated zero rows: rows %d, disk %d, pages %d; want %d, 0, 0",
				agg, cost.RowsRead, cost.DiskAccesses, cost.PagesTouched, len(isolated))
		}
		ex, err := ExplainQuery(s, agg, sels["isolated"], Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ex.ZeroRows != len(isolated) {
			t.Errorf("%v: explain ZeroRows = %d, want %d", agg, ex.ZeroRows, len(isolated))
		}
		if agg == StdDev {
			continue // its delta corrections add baseline reads of their own
		}
		// One chunk, one run enclosing the zero run: everything is scanned.
		run := Selection{Rows: seq(runLo-2, runHi+2), Cols: cols}
		_, cost = tracedEval(t, s, agg, run, 1)
		if want := int64(len(run.Rows)); cost.RowsRead != want || cost.DiskAccesses != want {
			t.Errorf("%v over a run holding zero rows: rows %d, disk %d; want %d scanned",
				agg, cost.RowsRead, cost.DiskAccesses, want)
		}
	}
}
