package query

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/trace"
)

// batchOverlappingItems builds a batch whose selections overlap heavily —
// every aggregate over shifted windows of the same row range — the shape a
// dashboard refresh sends.
func batchOverlappingItems(n, m int) []BatchItem {
	items := make([]BatchItem, 0, len(allAggregates)*2)
	for i, agg := range allAggregates {
		lo := (i * n / 12) % (n / 2)
		items = append(items,
			BatchItem{Agg: agg, Sel: Selection{Rows: seq(lo, lo+n/2), Cols: seq(0, m)}},
			BatchItem{Agg: agg, Sel: Selection{Rows: seq(n/4, 3*n/4), Cols: seq(0, m/2)}},
		)
	}
	return items
}

// TestBatchBitIdenticalEveryStoreAndWorkerCount is the batch acceptance
// sweep: EvaluateBatch must reproduce the sequential EvaluateOpts result
// bit-for-bit for every aggregate × store method × worker count.
func TestBatchBitIdenticalEveryStoreAndWorkerCount(t *testing.T) {
	stores := engineStores(t)
	stores["svd-file"] = fileBackedSVD(t, 256)
	for name, s := range stores {
		n, m := s.Dims()
		items := batchOverlappingItems(n, m)
		for _, workers := range []int{1, 3, 8} {
			opts := Options{Workers: workers}
			got, err := EvaluateBatch(s, items, opts)
			if err != nil {
				t.Fatalf("%s/w%d: batch: %v", name, workers, err)
			}
			if len(got) != len(items) {
				t.Fatalf("%s/w%d: %d results for %d items", name, workers, len(got), len(items))
			}
			for idx, it := range items {
				want, err := EvaluateOpts(s, it.Agg, it.Sel, opts)
				if err != nil {
					t.Fatalf("%s/w%d/%d: sequential: %v", name, workers, idx, err)
				}
				if got[idx].Err != nil {
					t.Fatalf("%s/w%d/%d: batch item error: %v", name, workers, idx, got[idx].Err)
				}
				if got[idx].Value != want {
					t.Errorf("%s/%v/w%d item %d: batch %v != sequential %v",
						name, it.Agg, workers, idx, got[idx].Value, want)
				}
			}
		}
	}
}

// TestBatchCostsItsItems is the batch's cost model: a batch is its items
// run alone on one pooled state, so its ledger is exactly its items' lone
// ledgers together, and — every store here holds U in memory, so nothing
// is warm — exactly the sum of their EXPLAIN estimates. It runs on every
// engine store and on an SVDD store above the extremum index's floor
// (core.Extrema), whose min and max items the index answers with few or
// no reads, at workers {1, 3, 8}, over overlapping items, items repeated
// verbatim, a duplicated-row selection and items that fail validation.
func TestBatchCostsItsItems(t *testing.T) {
	stores := engineStores(t)
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(4 * core.ExtremaDepth))
	indexed, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	stores["svdd-indexed"] = indexed
	for name, s := range stores {
		n, m := s.Dims()
		items := batchOverlappingItems(n, m)
		items = append(items, items[:4]...)
		for _, agg := range allAggregates {
			items = append(items, BatchItem{Agg: agg, Sel: batchOfOneSelection(n, m)})
		}
		items = append(items,
			BatchItem{Agg: Min, Sel: Selection{Rows: []int{0, n}, Cols: seq(0, m)}},
			BatchItem{Agg: Sum, Sel: Selection{Rows: seq(0, n)}})
		for _, workers := range []int{1, 3, 8} {
			lone := tracedLedger(func(ctx context.Context) {
				for _, it := range items {
					_, _ = EvaluateOpts(s, it.Agg, it.Sel, Options{Workers: workers, Ctx: ctx})
				}
			})
			var est Explain
			for _, it := range items {
				ex, err := ExplainQuery(s, it.Agg, it.Sel, Options{Workers: workers})
				if err != nil {
					continue
				}
				est.EstRowsRead += ex.EstRowsRead
				est.EstDiskAccesses += ex.EstDiskAccesses
				est.EstPagesTouched += ex.EstPagesTouched
				est.EstDeltasProbed += ex.EstDeltasProbed
				est.Chunks += ex.Chunks
			}
			var results []BatchResult
			batch := tracedLedger(func(ctx context.Context) {
				var err error
				if results, err = EvaluateBatch(s, items, Options{Workers: workers, Ctx: ctx}); err != nil {
					t.Fatal(err)
				}
			})
			if results[len(items)-2].Err == nil || results[len(items)-1].Err == nil {
				t.Fatalf("%s/w%d: the invalid items did not fail: %+v", name, workers, results[len(items)-2:])
			}
			if batch != lone {
				t.Errorf("%s/w%d: batch ledger %+v != its items' lone ledgers %+v", name, workers, batch, lone)
			}
			if batch.RowsRead != est.EstRowsRead || batch.DiskAccesses != est.EstDiskAccesses ||
				batch.PagesTouched != est.EstPagesTouched || batch.DeltasProbed != est.EstDeltasProbed ||
				batch.WorkerChunks != int64(est.Chunks) {
				t.Errorf("%s/w%d: batch ledger %+v != its items' estimates (rows %d, disk %d, pages %d, deltas %d, chunks %d)",
					name, workers, batch, est.EstRowsRead, est.EstDiskAccesses, est.EstPagesTouched, est.EstDeltasProbed, est.Chunks)
			}
		}
	}
}

// batchOfOneSelection has repeated rows, each charged as often as it is
// listed.
func batchOfOneSelection(n, m int) Selection {
	return Selection{Rows: append(seq(1, n/2), 3, 3, n-1), Cols: seq(2, m/2)}
}

// TestBatchOfOneIsTheQuery: a lone aggregate served as a batch of one is
// the query itself — EvaluateBatch of one item is EvaluateOpts and
// EvaluateBatchPartial of one item is EvaluatePartial, bit for bit, on
// every store kind.
func TestBatchOfOneIsTheQuery(t *testing.T) {
	opts := Options{Workers: 1}
	for name, s := range engineStores(t) {
		sel := batchOfOneSelection(s.Dims())
		for _, agg := range allAggregates {
			items := []BatchItem{{Agg: agg, Sel: sel}}
			want, err := EvaluateOpts(s, agg, sel, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := EvaluateBatch(s, items, opts)
			if err != nil || res[0].Err != nil {
				t.Fatal(err, res[0].Err)
			}
			if math.Float64bits(res[0].Value) != math.Float64bits(want) {
				t.Errorf("%s/%v: batch of one %v, the query %v", name, agg, res[0].Value, want)
			}
			p, err := EvaluatePartial(s, agg, sel, opts)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := EvaluateBatchPartial(s, items, opts)
			if err != nil || pres[0].Err != nil {
				t.Fatal(err, pres[0].Err)
			}
			wantP, err := p.MarshalBinary()
			if err != nil || !bytes.Equal(pres[0].Bytes, wantP) {
				t.Errorf("%s/%v: batch-of-one partial differs from EvaluatePartial's (%v)", name, agg, err)
			}
		}
	}
}

// TestBatchOfOneCostsTheQuery: a batch of one charges the query's ledger
// and allocates its results slice on top of the single call, nothing else.
func TestBatchOfOneCostsTheQuery(t *testing.T) {
	ledgerOf := func(run func(opts Options) error) trace.LedgerSnapshot {
		t.Helper()
		tr := trace.New("t", "/test")
		if err := run(Options{Workers: 1, Ctx: trace.NewContext(context.Background(), tr)}); err != nil {
			t.Fatal(err)
		}
		return tr.Ledger.Snapshot()
	}
	for name, s := range engineStores(t) {
		sel := batchOfOneSelection(s.Dims())
		for _, agg := range allAggregates {
			want := ledgerOf(func(opts Options) error {
				_, err := EvaluateOpts(s, agg, sel, opts)
				return err
			})
			got := ledgerOf(func(opts Options) error {
				_, err := EvaluateBatch(s, []BatchItem{{Agg: agg, Sel: sel}}, opts)
				return err
			})
			if got != want {
				t.Errorf("%s/%v: batch of one charges %+v, the query %+v", name, agg, got, want)
			}
		}
	}

	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun budgets only hold without -race")
	}
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(1024))
	svdd, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]store.Store{"svd": allocProbeStore(t, 1024), "svdd": svdd} {
		sel := batchOfOneSelection(s.Dims())
		for _, agg := range []Aggregate{Sum, StdDev, Min} {
			items := []BatchItem{{Agg: agg, Sel: sel}}
			opts := Options{Workers: 1}
			single := steadyStateAllocs(t, s, agg, sel, opts)
			batch := testing.AllocsPerRun(20, func() {
				if _, err := EvaluateBatch(s, items, opts); err != nil {
					t.Fatal(err)
				}
			})
			partial := testing.AllocsPerRun(20, func() {
				if _, err := EvaluatePartial(s, agg, sel, opts); err != nil {
					t.Fatal(err)
				}
			})
			batchPartial := testing.AllocsPerRun(20, func() {
				if _, err := EvaluateBatchPartial(s, items, opts); err != nil {
					t.Fatal(err)
				}
			})
			if batch > single+1 || batchPartial > partial+1 {
				t.Errorf("%s/%v: batch of one allocates %.0f (the query %.0f), partial %.0f (the query %.0f); want at most one more",
					name, agg, batch, single, batchPartial, partial)
			}
		}
	}
}

// TestBatchPerItemErrors: invalid items fail alone — the /v1/bulk idiom —
// while the rest of the batch evaluates normally.
func TestBatchPerItemErrors(t *testing.T) {
	s := fileBackedSVD(t, 64)
	n, m := s.Dims()
	items := []BatchItem{
		{Agg: Sum, Sel: Selection{Rows: seq(0, n), Cols: seq(0, m)}},
		{Agg: Min, Sel: Selection{Rows: []int{n + 5}, Cols: seq(0, m)}}, // out of range
		{Agg: Max, Sel: Selection{Rows: nil, Cols: seq(0, m)}},          // empty
		{Agg: Avg, Sel: Selection{Rows: seq(0, n/2), Cols: seq(0, m)}},
	}
	results, err := EvaluateBatch(s, items, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Errorf("valid items failed: %v, %v", results[0].Err, results[3].Err)
	}
	if results[1].Err == nil {
		t.Error("out-of-range item did not fail")
	}
	if !errors.Is(results[2].Err, ErrEmptySelection) {
		t.Errorf("empty item error %v, want ErrEmptySelection", results[2].Err)
	}
	for _, idx := range []int{0, 3} {
		want, err := EvaluateOpts(s, items[idx].Agg, items[idx].Sel, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if results[idx].Value != want {
			t.Errorf("item %d: %v != %v", idx, results[idx].Value, want)
		}
	}
}

// TestBatchEmptyAndCountOnly: degenerate batches behave.
func TestBatchEmptyAndCountOnly(t *testing.T) {
	s := fileBackedSVD(t, 32)
	n, m := s.Dims()
	results, err := EvaluateBatch(s, nil, Options{Workers: 1})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(results))
	}
	items := []BatchItem{
		{Agg: Count, Sel: Selection{Rows: seq(0, n), Cols: seq(0, m)}},
		{Agg: Count, Sel: Selection{Rows: seq(0, n/2), Cols: seq(0, m)}},
	}
	tr := trace.New("t", "/test")
	ctx := trace.NewContext(context.Background(), tr)
	results, err = EvaluateBatch(s, items, Options{Workers: 1, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value != float64(n*m) || results[1].Value != float64(n/2*m) {
		t.Errorf("count batch results: %+v", results)
	}
	if cost := tr.Ledger.Snapshot(); cost.DiskAccesses != 0 {
		t.Errorf("count-only batch touched disk: %+v", cost)
	}
}

// TestBatchCancelledContext: a fired context aborts the batch with
// ctx.Err and leaves the remaining items unevaluated.
func TestBatchCancelledContext(t *testing.T) {
	s := fileBackedSVD(t, 64)
	n, m := s.Dims()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := batchOverlappingItems(n, m)
	_, err := EvaluateBatch(s, items, Options{Workers: 1, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBatchWithPlanCache: batch rounds repeated on pooled states, whose
// plans are rebuilt per item, stay bit-identical to the sequential
// reference round after round. (The plan cache it once exercised is gone.)
func TestBatchWithPlanCache(t *testing.T) {
	s := fileBackedSVD(t, 128)
	n, m := s.Dims()
	items := batchOverlappingItems(n, m)
	for round := 0; round < 3; round++ {
		got, err := EvaluateBatch(s, items, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		for idx, it := range items {
			want, err := EvaluateOpts(s, it.Agg, it.Sel, Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if got[idx].Err != nil || got[idx].Value != want {
				t.Errorf("round %d item %d: %v (err %v) != %v",
					round, idx, got[idx].Value, got[idx].Err, want)
			}
		}
	}
}

// TestBatchRandomizedSelections cross-checks batch against sequential on
// random selections.
func TestBatchRandomizedSelections(t *testing.T) {
	s := fileBackedSVD(t, 200)
	n, m := s.Dims()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		items := make([]BatchItem, 5)
		for i := range items {
			items[i] = BatchItem{
				Agg: allAggregates[rng.Intn(len(allAggregates))],
				Sel: RandomSelection(rng, n, m, 0.01+0.2*rng.Float64()),
			}
		}
		got, err := EvaluateBatch(s, items, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for idx, it := range items {
			want, err := EvaluateOpts(s, it.Agg, it.Sel, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got[idx].Err != nil || got[idx].Value != want {
				t.Errorf("trial %d item %d (%v): %v != %v",
					trial, idx, it.Agg, got[idx].Value, want)
			}
		}
	}
}
