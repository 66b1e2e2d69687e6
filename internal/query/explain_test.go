package query

import (
	"context"
	"math/rand"
	"testing"

	"seqstore/internal/trace"
)

// TestExplainMatchesDispatch pins the explain block's plan kind against the
// dispatch evaluate actually takes, for every store type and aggregate.
func TestExplainMatchesDispatch(t *testing.T) {
	stores := engineStores(t)
	wantPlan := func(store string, agg Aggregate) string {
		switch {
		case agg == Count:
			return PlanCount
		case store == "svd" || store == "svdd":
			if agg == Sum || agg == Avg || agg == StdDev {
				return PlanFactored
			}
			return PlanProjected
		default:
			return PlanGeneric
		}
	}
	for name, s := range stores {
		n, m := s.Dims()
		sel := Selection{Rows: seq(0, n), Cols: seq(0, m)}
		for _, agg := range allAggregates {
			ex, err := ExplainQuery(s, agg, sel, Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, agg, err)
			}
			if want := wantPlan(name, agg); ex.Plan != want {
				t.Errorf("%s/%v: plan %q, want %q", name, agg, ex.Plan, want)
			}
			if ex.Cells != int64(sel.NumCells()) {
				t.Errorf("%s/%v: cells %d, want %d", name, agg, ex.Cells, sel.NumCells())
			}
		}
	}
}

// TestExplainEstimatesMatchLedger is the acceptance pin: on a cold store
// (no batch buffer, no row cache in the engine) the explain estimates must
// equal the executed request's ledger exactly — rows read, disk accesses,
// pages touched, delta probes and worker chunks — across store types,
// aggregates, worker counts and random selections.
func TestExplainEstimatesMatchLedger(t *testing.T) {
	stores := engineStores(t)
	stores["svd-file"] = fileBackedSVD(t, 200)
	rng := rand.New(rand.NewSource(23))
	for name, s := range stores {
		n, m := s.Dims()
		sels := []Selection{
			{Rows: seq(0, n), Cols: seq(0, m)},
			RandomSelection(rng, n, m, 0.05),
			RandomSelection(rng, n, m, 0.4),
		}
		for si, sel := range sels {
			for _, agg := range []Aggregate{Count, Sum, Avg, StdDev, Min} {
				for _, workers := range []int{1, 3, 8} {
					ex, err := ExplainQuery(s, agg, sel, Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s/%v/w%d: explain: %v", name, agg, workers, err)
					}
					tr := trace.New("t", "/test")
					ctx := trace.NewContext(context.Background(), tr)
					if _, err := EvaluateOpts(s, agg, sel, Options{Workers: workers, Ctx: ctx}); err != nil {
						t.Fatalf("%s/%v/w%d: evaluate: %v", name, agg, workers, err)
					}
					c := tr.Ledger.Snapshot()
					if ex.EstRowsRead != c.RowsRead || ex.EstDiskAccesses != c.DiskAccesses ||
						ex.EstPagesTouched != c.PagesTouched || ex.EstDeltasProbed != c.DeltasProbed {
						t.Errorf("%s/%v/w%d sel%d: estimate (rows %d, disk %d, pages %d, deltas %d) != actual (rows %d, disk %d, pages %d, deltas %d)",
							name, agg, workers, si,
							ex.EstRowsRead, ex.EstDiskAccesses, ex.EstPagesTouched, ex.EstDeltasProbed,
							c.RowsRead, c.DiskAccesses, c.PagesTouched, c.DeltasProbed)
					}
					if agg != Count && int64(ex.Chunks) != c.WorkerChunks {
						t.Errorf("%s/%v/w%d sel%d: chunks %d != worker_chunks %d",
							name, agg, workers, si, ex.Chunks, c.WorkerChunks)
					}
				}
			}
		}
	}
}

// TestExplainNoExtraDiskAccesses pins the §17 invariant: explaining a query
// performs no store reads at all.
func TestExplainNoExtraDiskAccesses(t *testing.T) {
	s := fileBackedSVD(t, 300)
	n, m := s.Dims()
	rng := rand.New(rand.NewSource(7))
	before := s.Base().UStats().RowReads()
	for trial := 0; trial < 10; trial++ {
		sel := RandomSelection(rng, n, m, 0.3)
		for _, agg := range allAggregates {
			if _, err := ExplainQuery(s, agg, sel, Options{Workers: 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if delta := s.Base().UStats().RowReads() - before; delta != 0 {
		t.Errorf("explain performed %d U reads, want 0", delta)
	}
}

// TestExplainDoesNotTouchPlanCache: explaining builds a transient plan and
// must neither populate the cache nor count as a hit or miss.
func TestExplainDoesNotTouchPlanCache(t *testing.T) {
	s := fileBackedSVD(t, 100)
	n, m := s.Dims()
	sel := Selection{Rows: seq(0, n), Cols: seq(0, m)}
	pc := NewPlanCache(16)
	if _, err := ExplainQuery(s, Sum, sel, Options{Workers: 1, Plans: pc}); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Size != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("explain touched the plan cache: %+v", st)
	}
}

// TestExplainRejectsInvalidSelection: validation mirrors evaluate.
func TestExplainRejectsInvalidSelection(t *testing.T) {
	s := fileBackedSVD(t, 50)
	if _, err := ExplainQuery(s, Sum, Selection{Rows: []int{999}, Cols: []int{0}}, Options{}); err == nil {
		t.Fatal("out-of-range selection accepted")
	}
}
