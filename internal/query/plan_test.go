package query

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/trace"
)

// evalOn evaluates (agg, sel) over s on the caller's state, traced, and
// returns the value's bits and the executed ledger. The state is not
// released: the caller keeps reusing it, as the pool would.
func evalOn(t *testing.T, st *evalState, s store.Store, agg Aggregate, sel Selection, workers int) (uint64, trace.LedgerSnapshot) {
	t.Helper()
	tr := trace.New("t", "/test")
	env := Options{Workers: workers, Ctx: trace.NewContext(context.Background(), tr)}.env()
	if err := st.evaluate(env, s, &BatchItem{Agg: agg, Sel: sel}); err != nil {
		t.Fatalf("%v: %v", agg, err)
	}
	v, err := st.value(agg)
	if err != nil {
		t.Fatalf("%v: %v", agg, err)
	}
	return math.Float64bits(v), tr.Ledger.Snapshot()
}

// freshValue evaluates (agg, sel) over s on a state never used before.
func freshValue(t *testing.T, s store.Store, agg Aggregate, sel Selection, workers int) float64 {
	t.Helper()
	bits, _ := evalOn(t, new(evalState), s, agg, sel, workers)
	return math.Float64frombits(bits)
}

// TestPlanCacheBitIdenticalToUncached: for a fixed worker count, an
// evaluation on a pooled state — whose plan is rebuilt in buffers an
// earlier evaluation left behind — returns the bits a fresh state returns,
// for every aggregate, store method and worker count, cold and repeated.
// (There is no plan cache any more; the name is kept for the pin's history.)
func TestPlanCacheBitIdenticalToUncached(t *testing.T) {
	stores := engineStores(t)
	rng := rand.New(rand.NewSource(23))
	for name, s := range stores {
		n, m := s.Dims()
		for trial := 0; trial < 4; trial++ {
			sel := RandomSelection(rng, n, m, 0.02+0.3*rng.Float64())
			for _, agg := range allAggregates {
				for _, workers := range []int{1, 3, 8} {
					want := freshValue(t, s, agg, sel, workers)
					cold, err := EvaluateOpts(s, agg, sel, Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s/%v/w%d: cold: %v", name, agg, workers, err)
					}
					warm, err := EvaluateOpts(s, agg, sel, Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s/%v/w%d: warm: %v", name, agg, workers, err)
					}
					if math.Float64bits(cold) != math.Float64bits(want) || math.Float64bits(warm) != math.Float64bits(want) {
						t.Errorf("%s/%v/w%d: pooled %v/%v != fresh %v",
							name, agg, workers, cold, warm, want)
					}
				}
			}
		}
	}
}

// TestPlanCacheDistinctStoresAndSelections: two stores and interleaved
// selections through the pooled states must never cross-serve a plan —
// every answer matches that store's naive reference.
func TestPlanCacheDistinctStoresAndSelections(t *testing.T) {
	s1 := fileBackedSVD(t, 64)
	s2 := fileBackedSVD(t, 64)
	n, m := s1.Dims()
	sels := []Selection{
		{Rows: seq(0, n/2), Cols: seq(0, m)},
		{Rows: seq(n/2, n), Cols: seq(0, m/2)},
		{Rows: []int{1, 5, 9}, Cols: []int{0, m - 1}},
	}
	for round := 0; round < 3; round++ {
		for si, sel := range sels {
			want1, err := EvaluateNaive(s1, Min, sel)
			if err != nil {
				t.Fatal(err)
			}
			want2, err := EvaluateNaive(s2, Min, sel)
			if err != nil {
				t.Fatal(err)
			}
			got1, err := EvaluateOpts(s1, Min, sel, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got2, err := EvaluateOpts(s2, Min, sel, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got1 != want1 {
				t.Errorf("round %d sel %d store1: %v != %v", round, si, got1, want1)
			}
			if got2 != want2 {
				t.Errorf("round %d sel %d store2: %v != %v", round, si, got2, want2)
			}
		}
	}
}

// TestPlanCacheConcurrent hammers the pooled states from many goroutines
// sharing a store (run under -race by make race): concurrent plan builds
// on states handed from goroutine to goroutine must stay correct.
func TestPlanCacheConcurrent(t *testing.T) {
	s := fileBackedSVD(t, 128)
	n, m := s.Dims()
	sels := make([]Selection, 6)
	rng := rand.New(rand.NewSource(7))
	for i := range sels {
		sels[i] = RandomSelection(rng, n, m, 0.05+0.2*rng.Float64())
	}
	want := make([]float64, len(sels))
	for i, sel := range sels {
		want[i] = freshValue(t, s, Min, sel, 1)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				i := (g + it) % len(sels)
				got, err := EvaluateOpts(s, Min, sels[i], Options{Workers: 1})
				if err != nil {
					errc <- err
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d sel %d: %v != %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestNilPlanCacheIsDisabled pins the deprecated plan-cache names the
// benchmark module still calls: NewPlanCache returns nil, Stats reports
// zeros, and Options.Plans changes nothing.
func TestNilPlanCacheIsDisabled(t *testing.T) {
	if pc := NewPlanCache(256); pc != nil {
		t.Fatalf("NewPlanCache(256) = %v, want nil", pc)
	}
	var pc *PlanCache
	if st := pc.Stats(); st != (PlanCacheStats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
	s := fileBackedSVD(t, 32)
	n, m := s.Dims()
	sel := Selection{Rows: seq(0, n), Cols: seq(0, m)}
	got, err := EvaluateOpts(s, Min, sel, Options{Workers: 1, Plans: new(PlanCache)})
	if err != nil {
		t.Fatal(err)
	}
	if want := freshValue(t, s, Min, sel, 1); got != want {
		t.Errorf("with Plans set: %v, want %v", got, want)
	}
}

// TestPooledPlanMatchesFresh drives ONE evaluation state from a single
// goroutine through everything a pooled state meets between requests:
// plain and SVDD stores of different M, ascending and shuffled-with-repeats
// selections, and an ingestion tier's cold segment before and after a
// Recompress swaps it (and the tier itself, whose hot rows take the generic
// path). Every evaluation and every EXPLAIN on it must equal a fresh
// state's: the value's bits, the executed ledger and the estimates. A plan
// buffer carried over instead of rebuilt — a panel, the digest's column
// counts or row runs, the run schedule — shows up here. The iteration
// switches store on every evaluation, and the selections' column counts do
// not depend on M, so consecutive plans have panels of the same shape.
func TestPooledPlanMatchesFresh(t *testing.T) {
	compress := func(rows, m int, svdd bool) *core.Store {
		cfg := dataset.DefaultPhoneConfig(rows)
		cfg.M = m
		src := matio.NewMem(dataset.GeneratePhone(cfg))
		if !svdd {
			f, err := svd.Compress(src, 5)
			if err != nil {
				t.Fatal(err)
			}
			return core.Plain(f)
		}
		s, err := core.Compress(src, core.Options{Budget: 0.15, Workers: 1, FlagZeroRows: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tierData := func() [][]float64 {
		cfg := dataset.DefaultPhoneConfig(48)
		cfg.M = 24
		x := dataset.GeneratePhone(cfg)
		rows := make([][]float64, x.Rows())
		for i := range rows {
			rows[i] = x.Row(i)
		}
		return rows
	}()
	tierCold := compress(36, 24, true)
	ti, err := ingest.Open(tierCold, nil, filepath.Join(t.TempDir(), "t.wal"), ingest.Options{DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ti.Close()
	if _, err := ti.AppendBatch(context.Background(), nil, tierData[36:44]); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.Compact(); err != nil {
		t.Fatal(err)
	}

	selsFor := func(s store.Store) map[string]Selection {
		n, m := s.Dims()
		shuffled := rand.New(rand.NewSource(int64(n))).Perm(n)[:n/2]
		shuffled = append(shuffled, shuffled[:n/8]...)
		return map[string]Selection{
			"ascending": {Rows: append(seq(1, n/2), seq(n/2+3, n-1)...), Cols: seq(2, 14)},
			"shuffled":  {Rows: shuffled, Cols: []int{m - 1, 4, 9, 4, 17, 2}},
		}
	}
	st := new(evalState)
	run := func(phase string, stores []store.Store) {
		for _, selName := range []string{"ascending", "shuffled", "ascending"} {
			for _, agg := range allAggregates {
				for _, workers := range []int{1, 3} {
					for si, s := range stores {
						sel := selsFor(s)[selName]
						got, gotLed := evalOn(t, st, s, agg, sel, workers)
						want, wantLed := evalOn(t, new(evalState), s, agg, sel, workers)
						if got != want || gotLed != wantLed {
							t.Errorf("%s/store %d/%s/%v/w%d: pooled %016x %+v, fresh %016x %+v",
								phase, si, selName, agg, workers, got, gotLed, want, wantLed)
						}
						gotEx, err := st.explain(s, &BatchItem{Agg: agg, Sel: sel}, workers)
						if err != nil {
							t.Fatal(err)
						}
						wantEx, err := new(evalState).explain(s, &BatchItem{Agg: agg, Sel: sel}, workers)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gotEx, wantEx) {
							t.Errorf("%s/store %d/%s/%v/w%d: pooled explain %+v, fresh %+v",
								phase, si, selName, agg, workers, *gotEx, *wantEx)
						}
					}
				}
			}
		}
	}
	plainA, plainB := compress(60, 40, false), compress(50, 24, false)
	svddA, svddB := compress(60, 40, true), compress(50, 24, true)
	run("before", []store.Store{plainA, plainB, svddA, svddB, ti.Cold()})
	before := ti.Cold()
	if err := ti.Recompress(); err != nil {
		t.Fatal(err)
	}
	if ti.Cold() == before {
		t.Fatal("Recompress kept the cold segment")
	}
	if _, err := ti.AppendBatch(context.Background(), nil, tierData[44:]); err != nil {
		t.Fatal(err)
	}
	run("after", []store.Store{before, ti.Cold(), svddA, plainB, ti})
}
