package query

import (
	"math/rand"
	"runtime"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// The allocation-budget tests pin the zero-alloc steady state the
// query-throughput work bought: once the plan cache is warm and the pools
// are primed, the projected and factored paths over a plain-SVD or an
// SVDD store must not allocate at all on the serial path, and parallel
// dispatch may only pay a constant per-query overhead (goroutines +
// waitgroup), never anything per row; and a batch over resident U reads it
// in place, never copying its row union. If a change reintroduces a
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

// steadyStateAllocs warms the cache and pools, then measures allocations
// per evaluation.
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

// TestSteadyStateZeroAllocSerial: with a warm plan cache, every aggregate
// allocates nothing on the serial path — over a plain-SVD store (the
// acceptance criterion behind BenchmarkEvaluateProjectedSteadyState) and
// over an SVDD store, whose delta overlay reads the plan's digest and the
// store's row index; on ascending rows (the digest is the run schedule)
// and on a shuffled multiset with repeats (the digest was sorted, once).
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
			pc := NewPlanCache(8)
			for _, agg := range allAggregates {
				if got := steadyStateAllocs(t, s, agg, sel, Options{Workers: 1, Plans: pc}); got != 0 {
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
// for each of the four workers, and more than that of projected work.
func TestSteadyStateAllocsDoNotScaleWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun budgets only hold without -race")
	}
	const (
		workers        = 4
		parallelBudget = 24 // dispatch-only; measured ~11 at 4 workers
	)
	s := allocProbeStore(t, 1024)
	n, _ := s.Dims()
	small := workers * minWorkerWork / s.K()
	pc := NewPlanCache(8)
	for _, agg := range []Aggregate{Min, Sum, StdDev} {
		var got [2]float64
		for i, rows := range []int{small, 4 * small} {
			// The store's rows over and over: a selection is a multiset.
			sel := Selection{Cols: seq(0, 16)}
			for len(sel.Rows) < rows {
				sel.Rows = append(sel.Rows, seq(0, min(n, rows-len(sel.Rows)))...)
			}
			got[i] = steadyStateAllocs(t, s, agg, sel, Options{Workers: workers, Plans: pc})
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

// TestBatchAllocatesLessThanItsUnion: a batch of overlapping items over
// resident U charges its row union and reads U in place, so one
// EvaluateBatch allocates less than a copy of the union's U rows alone
// would take (distinct·k·8 bytes): the results, the union's bitset and the
// items' dispatch, never the rows.
func TestBatchAllocatesLessThanItsUnion(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; allocation budgets only hold without -race")
	}
	s := allocProbeStore(t, 512)
	n, m := s.Dims()
	items := batchOverlappingItems(n, m)
	distinct := make(map[int]bool)
	for _, it := range items {
		for _, r := range it.Sel.Rows {
			distinct[r] = true
		}
	}
	opts := Options{Workers: 1, Plans: NewPlanCache(64)}
	run := func() {
		results, err := EvaluateBatch(s, items, opts)
		if err != nil {
			t.Fatal(err)
		}
		for idx, r := range results {
			if r.Err != nil {
				t.Fatalf("item %d: %v", idx, r.Err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(distinct) * s.K() * 8); perBatch >= limit {
		t.Errorf("one batch allocates %d bytes, not below its union's U rows (%d rows × k = %d × 8 = %d bytes)",
			perBatch, len(distinct), s.K(), limit)
	}
	t.Logf("%d bytes per batch against a %d-row union", perBatch, len(distinct))
}
