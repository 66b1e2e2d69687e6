package query

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
)

// Benchmarks referenced by EXPERIMENTS.md: naive full-row evaluation
// versus the projected engine versus the factored forms, over selection
// shapes that favor each path. Run with
//
//	go test -bench BenchmarkEvaluate -benchmem ./internal/query/
//
// Narrow-column selections are where projection wins (O(k·|C|) per row
// beats O(k·M)); dense selections are where worker sharding and factored
// moments win.
func benchStore(b *testing.B) *core.Store {
	b.Helper()
	x := testMatrix()
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchSelections(s *core.Store) map[string]Selection {
	n, m := s.Dims()
	return map[string]Selection{
		// ≤10% of columns, every row: the projected kernel's best case.
		"narrow-col": {Rows: All(n), Cols: []int{2, 17, m - 1}},
		// A few rows, every column: dominated by per-row setup.
		"narrow-row": {Rows: []int{1, 7, n / 2, n - 2}, Cols: All(m)},
		// Everything: the dense case workers and factoring target.
		"dense": {Rows: All(n), Cols: All(m)},
	}
}

func BenchmarkEvaluateNaive(b *testing.B) {
	s := benchStore(b)
	for name, sel := range benchSelections(s) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EvaluateNaive(s, Min, sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvaluateProjected(b *testing.B) {
	s := benchStore(b)
	for name, sel := range benchSelections(s) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Min never factors, so this times the projected engine.
				if _, err := EvaluateOpts(s, Min, sel, Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvaluateFactored(b *testing.B) {
	s := benchStore(b)
	for name, sel := range benchSelections(s) {
		for _, agg := range []Aggregate{Sum, StdDev} {
			b.Run(name+"/"+agg.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := EvaluateOpts(s, agg, sel, Options{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEvaluateProjectedSteadyState pins the zero-alloc steady state:
// warm plan cache, primed pools, ReportAllocs. The projected path must
// report 0 allocs/op; any regression shows up as B/op > 0 here and as a
// failure in TestSteadyStateZeroAllocSerial.
func BenchmarkEvaluateProjectedSteadyState(b *testing.B) {
	s := benchStore(b)
	pc := NewPlanCache(8)
	for name, sel := range benchSelections(s) {
		b.Run(name, func(b *testing.B) {
			opts := Options{Workers: 1, Plans: pc}
			for i := 0; i < 3; i++ {
				if _, err := EvaluateOpts(s, Min, sel, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EvaluateOpts(s, Min, sel, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateFactoredSteadyState: same pin for the factored
// Sum/StdDev paths on the plain-SVD base (the SVDD delta corrections
// allocate their per-call multiset maps by design, so the core store's
// Base() is benchmarked directly).
func BenchmarkEvaluateFactoredSteadyState(b *testing.B) {
	s := benchStore(b).Base()
	pc := NewPlanCache(8)
	for name, sel := range benchSelections2(s.Dims()) {
		for _, agg := range []Aggregate{Sum, StdDev} {
			b.Run(name+"/"+agg.String(), func(b *testing.B) {
				opts := Options{Workers: 1, Plans: pc}
				for i := 0; i < 3; i++ {
					if _, err := EvaluateOpts(s, agg, sel, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := EvaluateOpts(s, agg, sel, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchSelections2 is benchSelections keyed by dimensions instead of the
// store, for store types without the core wrapper.
func benchSelections2(n, m int) map[string]Selection {
	return map[string]Selection{
		"narrow-col": {Rows: All(n), Cols: []int{2, 17, m - 1}},
		"narrow-row": {Rows: []int{1, 7, n / 2, n - 2}, Cols: All(m)},
		"dense":      {Rows: All(n), Cols: All(m)},
	}
}

// BenchmarkEvaluateBatch compares N overlapping aggregates evaluated
// independently versus through the scan-sharing batch path.
func BenchmarkEvaluateBatch(b *testing.B) {
	s := benchStore(b)
	n, m := s.Dims()
	items := batchOverlappingItems(n, m)
	pc := NewPlanCache(32)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if _, err := EvaluateOpts(s, it.Agg, it.Sel, Options{Workers: 1, Plans: pc}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results, err := EvaluateBatch(s, items, Options{Workers: 1, Plans: pc})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// adhocFixture is the agg_adhoc rung's input: the served store (20 000
// customers × 366 days, SVDD at the paper's 10 % budget) and the workload's
// selection shapes — a contiguous 1–25 % of the rows × a 5–50 % column
// window, every other one thinned to one weekday — drawn Zipf(1.1) over a
// pool of 512 through a 256-plan cache, so about a fifth of the draws
// rebuild their plan. Built once and shared by the sub-benchmarks.
var adhocFixture struct {
	once  sync.Once
	err   error
	store *core.Store
	sels  []Selection
	draws []int
}

func adhocSetup(b *testing.B) (*core.Store, []Selection, []int) {
	b.Helper()
	fx := &adhocFixture
	fx.once.Do(func() {
		const n, m, pool = 20000, 366, 512
		cfg := dataset.DefaultPhoneConfig(n)
		cfg.M = m
		fx.store, fx.err = core.Compress(matio.NewMem(dataset.GeneratePhone(cfg)), core.Options{Budget: 0.10})
		if fx.err != nil {
			return
		}
		rng := rand.New(rand.NewSource(1))
		for p := 0; p < pool; p++ {
			rw := n/100 + rng.Intn(n/4-n/100+1)
			rlo := rng.Intn(n - rw + 1)
			cw := m/20 + rng.Intn(m/2-m/20+1)
			clo := rng.Intn(m - cw + 1)
			sel := Selection{Rows: seq(rlo, rlo+rw), Cols: seq(clo, clo+cw)}
			if p%2 == 1 && cw >= 14 {
				sel.Cols = sel.Cols[:0]
				for j := clo + rng.Intn(7); j < clo+cw; j += 7 {
					sel.Cols = append(sel.Cols, j)
				}
			}
			fx.sels = append(fx.sels, sel)
		}
		zipf := rand.NewZipf(rng, 1.1, 1, pool-1)
		for d := 0; d < 4096; d++ {
			fx.draws = append(fx.draws, int(zipf.Uint64()))
		}
	})
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	return fx.store, fx.sels, fx.draws
}

// BenchmarkEvaluateAdhoc is the query-plan rung of the agg_adhoc workload
// without the 15 s harness: one op is one aggregate over the next Zipf
// draw, per plan class (factored sum, factored stddev, projected min and
// max) and worker count.
//
//	go test -run '^$' -bench EvaluateAdhoc -benchmem ./internal/query
func BenchmarkEvaluateAdhoc(b *testing.B) {
	for _, agg := range []Aggregate{Sum, StdDev, Min, Max} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/w%d", agg, workers), func(b *testing.B) {
				s, sels, draws := adhocSetup(b)
				opts := Options{Workers: workers, Plans: NewPlanCache(256)}
				for _, d := range draws[:512] {
					if _, err := EvaluateOpts(s, agg, sels[d], opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := EvaluateOpts(s, agg, sels[draws[i%len(draws)]], opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
