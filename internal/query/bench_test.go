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

// BenchmarkMomentsAdd is the factored moments' kernel alone: one op is one
// U row of the adhoc fixture folded into a uMoments, cycling through the
// store's rows, so ns/op is ns per U row — "sum" stages the k components a
// sum or avg reads, "gram" also the k(k+1)/2 products a stddev reads. The
// staged bins flush every 1 024 rows inside the loop, as in an
// evaluation.
//
//	go test -run '^$' -bench MomentsAdd ./internal/query
func BenchmarkMomentsAdd(b *testing.B) {
	s, _, _ := adhocSetup(b)
	n, _ := s.Dims()
	k := s.K()
	rows := make([]float64, n*k)
	for i := 0; i < n; i++ {
		if err := s.Base().URow(i, rows[i*k:(i+1)*k]); err != nil {
			b.Fatal(err)
		}
	}
	for _, gram := range []bool{false, true} {
		name := "sum"
		if gram {
			name = "gram"
		}
		b.Run(fmt.Sprintf("%s/k%d", name, k), func(b *testing.B) {
			var um uMoments
			um.reset(k, gram)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % n
				um.add(rows[r*k : (r+1)*k])
			}
			um.flush()
		})
	}
}

// BenchmarkBatchAdhoc is agg_adhoc's batch op without the server:
// four items over one pooled selection's columns whose row ranges overlap
// by three quarters, each a random sum/avg/stddev/min/max, through one
// EvaluateBatch ("batch") and as four EvaluateOpts calls ("lone"), both on
// one worker with a warm plan cache. One op is one batch of four.
//
//	go test -run '^$' -bench BatchAdhoc ./internal/query
func BenchmarkBatchAdhoc(b *testing.B) {
	s, sels, draws := adhocSetup(b)
	n, _ := s.Dims()
	aggs := []Aggregate{Sum, Avg, StdDev, Min, Max}
	rng := rand.New(rand.NewSource(2))
	batches := make([][]BatchItem, 128)
	for i := range batches {
		sel := sels[draws[rng.Intn(len(draws))]]
		lo, width := sel.Rows[0], len(sel.Rows)
		for t := 0; t < 4; t++ {
			start := min(lo+t*(width/4), n-width)
			batches[i] = append(batches[i], BatchItem{Agg: aggs[rng.Intn(len(aggs))],
				Sel: Selection{Rows: seq(start, start+width), Cols: sel.Cols}})
		}
	}
	opts := Options{Workers: 1, Plans: NewPlanCache(256)}
	run := map[string]func(items []BatchItem){
		"batch": func(items []BatchItem) {
			res, err := EvaluateBatch(s, items, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range res {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		},
		"lone": func(items []BatchItem) {
			for _, it := range items {
				if _, err := EvaluateOpts(s, it.Agg, it.Sel, opts); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
	for _, name := range []string{"batch", "lone"} {
		b.Run(name, func(b *testing.B) {
			for _, items := range batches {
				run[name](items)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run[name](batches[i%len(batches)])
			}
		})
	}
}
