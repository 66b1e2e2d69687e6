package query

import (
	"math/rand"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// The allocation-budget tests pin the zero-alloc steady state the
// query-throughput work bought: once the pools are primed, so that every
// evaluation rebuilds its plan in buffers its pooled state already owns, the projected and factored paths over a plain-SVD or an
// SVDD store must not allocate at all on the serial path, and parallel
// dispatch may only pay a constant per-query overhead (goroutines +
// waitgroup), never anything per row; and a batch allocates what its items
// do, plus its results. If a change reintroduces a
// per-row, per-chunk or per-call allocation — a closure escaping into a
// row scan, a scratch slice rebuilt per call, a multiset map of the
// selection, an accumulator returned by pointer, a staged copy of U rows —
// these fail immediately.

func allocProbeStore(t testing.TB, rows int) *core.Store {
	t.Helper()
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(rows))
	s, err := svd.Compress(matio.NewMem(x), 8)
	if err != nil {
		t.Fatal(err)
	}
	return core.Plain(s)
}

// steadyStateAllocs warms the pools, then measures allocations per
// evaluation.
func steadyStateAllocs(t *testing.T, s store.Store, agg Aggregate, sel Selection, opts Options) float64 {
	t.Helper()
	for i := 0; i < 5; i++ {
		if _, err := EvaluateOpts(s, agg, sel, opts); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := EvaluateOpts(s, agg, sel, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateZeroAllocSerial: with primed pools, every aggregate
// allocates nothing on the serial path — over a plain-SVD store (the
// acceptance criterion behind BenchmarkEvaluateProjectedSteadyState) and
// over an SVDD store, whose delta overlay reads the plan's digest and the
// store's row index; on ascending rows (the digest is the run schedule)
// and on a shuffled multiset with repeats (the digest is sorted in the
// plan's own scratch).
func TestSteadyStateZeroAllocSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun budgets only hold without -race")
	}
	base := allocProbeStore(t, 256)
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(256))
	svdd, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if svdd.NumOutliers() == 0 {
		t.Fatal("fixture stored no outliers")
	}
	n, m := base.Dims()
	shuffled := Selection{Rows: rand.New(rand.NewSource(3)).Perm(n)[:n/2], Cols: []int{m - 1, 4, 9, 4, 200, 17}}
	shuffled.Rows = append(shuffled.Rows, shuffled.Rows[:n/8]...)
	for name, s := range map[string]store.Store{"svd": base, "svdd": svdd} {
		for selName, sel := range map[string]Selection{"full": {Rows: seq(0, n), Cols: seq(0, m)}, "shuffled": shuffled} {
			for _, agg := range allAggregates {
				if got := steadyStateAllocs(t, s, agg, sel, Options{Workers: 1}); got != 0 {
					t.Errorf("%s/%s/%v: %.1f allocs/op in steady state, want 0", name, selName, agg, got)
				}
			}
		}
	}
}

// TestSteadyStateAllocsDoNotScaleWithRows: parallel dispatch pays a small
// constant per query (goroutine launch, waitgroup, error slice). That
// constant must not grow with the selection: quadrupling the rows must
// not change the per-query allocation count at all. A selection too short
// to share runs on one goroutine (evalWorkers), so both sizes are taken
// from minWorkerWork: the smaller already holds a share of factored work
// for each of the four workers, and more than that of projected work. The
// min runs on a store too short for the extremum index (core.Extrema),
// which would answer it with no dispatch at all, so it is projected.
func TestSteadyStateAllocsDoNotScaleWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun budgets only hold without -race")
	}
	const (
		workers        = 4
		parallelBudget = 24 // dispatch-only; measured ~11 at 4 workers
	)
	s, short := allocProbeStore(t, 1024), allocProbeStore(t, 2*core.ExtremaDepth)
	small := workers * minWorkerWork / s.K()
	for _, agg := range []Aggregate{Min, Sum, StdDev} {
		s := s
		if agg == Min {
			s = short
		}
		n, _ := s.Dims()
		var got [2]float64
		for i, rows := range []int{small, 4 * small} {
			// The store's rows over and over: a selection is a multiset.
			sel := Selection{Cols: seq(0, 16)}
			for len(sel.Rows) < rows {
				sel.Rows = append(sel.Rows, seq(0, min(n, rows-len(sel.Rows)))...)
			}
			got[i] = steadyStateAllocs(t, s, agg, sel, Options{Workers: workers})
		}
		if got[0] == 0 {
			t.Errorf("%v: no allocation at %d rows: the evaluation did not fan out, so the test pins nothing", agg, small)
		}
		if got[1] > got[0] {
			t.Errorf("%v: allocs grew with rows: %.1f at %d rows, %.1f at %d", agg, got[0], small, got[1], 4*small)
		}
		if got[0] > parallelBudget {
			t.Errorf("%v: %.1f allocs/op exceeds parallel dispatch budget %d", agg, got[0], parallelBudget)
		}
	}
}

// TestBatchAllocatesWhatItsItemsDo: a batch of four overlapping items
// allocates at most one more than its four items run alone — the results
// slice — and nothing per item or per row, whether it rounds values or
// exports partials; TestBatchOfOneCostsTheQuery holds a batch of one to
// the same budget.
func TestBatchAllocatesWhatItsItemsDo(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun budgets only hold without -race")
	}
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(512))
	svdd, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]store.Store{"svd": allocProbeStore(t, 512), "svdd": svdd} {
		n, m := s.Dims()
		var items []BatchItem
		for i, agg := range []Aggregate{Sum, StdDev, Min, Max} {
			items = append(items, BatchItem{Agg: agg, Sel: Selection{Rows: seq(i*n/8, i*n/8+n/2), Cols: seq(i, m/2+i)}})
		}
		opts := Options{Workers: 1}
		var lone, lonePartial float64
		for _, it := range items {
			lone += steadyStateAllocs(t, s, it.Agg, it.Sel, opts)
			lonePartial += testing.AllocsPerRun(20, func() {
				if _, err := EvaluatePartial(s, it.Agg, it.Sel, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		batch := testing.AllocsPerRun(20, func() {
			if _, err := EvaluateBatch(s, items, opts); err != nil {
				t.Fatal(err)
			}
		})
		batchPartial := testing.AllocsPerRun(20, func() {
			if _, err := EvaluateBatchPartial(s, items, opts); err != nil {
				t.Fatal(err)
			}
		})
		if batch > lone+1 || batchPartial > lonePartial+1 {
			t.Errorf("%s: a batch of four allocates %.0f (its items %.0f), partial %.0f (its items %.0f); want at most one more",
				name, batch, lone, batchPartial, lonePartial)
		}
	}
}
