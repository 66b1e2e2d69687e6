package seqstore

import (
	"context"
	"fmt"
	"math/rand"

	"seqstore/internal/query"
)

// Aggregate names an aggregate function for Store.Aggregate.
type Aggregate string

// Supported aggregates.
const (
	Sum    Aggregate = "sum"
	Avg    Aggregate = "avg"
	Count  Aggregate = "count"
	Min    Aggregate = "min"
	Max    Aggregate = "max"
	StdDev Aggregate = "stddev"
)

// AggOptions tunes Store.AggregateOpts.
type AggOptions struct {
	// Workers shards the selected rows across this many goroutines:
	// 0 means one per CPU, 1 (the Aggregate default) evaluates serially.
	Workers int
}

// Aggregate evaluates f over the cross product of the selected rows and
// columns on the reconstructed data — e.g. "total sales to these customers
// over these days". Sum, Avg and StdDev on SVD/SVDD stores use the
// factored O(k·(|rows|+|cols|)) / O(k²·(|rows|+|cols|)) evaluations; the
// rest reconstruct only the selected columns of each selected row.
func (st *Store) Aggregate(agg Aggregate, rows, cols []int) (float64, error) {
	return st.AggregateOpts(agg, rows, cols, AggOptions{Workers: 1})
}

// AggregateOpts is Aggregate with engine tuning knobs.
func (st *Store) AggregateOpts(agg Aggregate, rows, cols []int, opts AggOptions) (float64, error) {
	return st.AggregateContext(context.Background(), agg, rows, cols, opts)
}

// AggregateContext is AggregateOpts with cancellation: the engine's workers
// check ctx between row chunks and return ctx.Err() once it fires, so a
// cancelled HTTP request or deadline stops a large aggregate mid-flight.
func (st *Store) AggregateContext(ctx context.Context, agg Aggregate, rows, cols []int, opts AggOptions) (float64, error) {
	a, err := query.ParseAggregate(string(agg))
	if err != nil {
		return 0, err
	}
	// The shared lock spans the whole evaluation: a concurrent FoldIn waits
	// for in-flight aggregates rather than mutating the store under them.
	st.mu.RLock()
	defer st.mu.RUnlock()
	return query.EvaluateOpts(st.s, a, query.Selection{Rows: rows, Cols: cols},
		query.Options{Workers: opts.Workers, Ctx: ctx})
}

// BatchQuery is one aggregate of a Store.AggregateBatch call.
type BatchQuery struct {
	Agg  Aggregate
	Rows []int
	Cols []int
}

// BatchValue is the per-query outcome of Store.AggregateBatch: the
// aggregate's value, or the error that query alone failed with.
type BatchValue struct {
	Value float64
	Err   error
}

// AggregateBatch evaluates several aggregates in one call, in order, on
// one pooled evaluation state. Each result, and each query's disk
// accesses, is what evaluating the query alone with the same options gives
// (bit-identical), so a batch costs the sum of its queries. A query that
// fails validation reports its error in its own BatchValue without
// affecting the others; the call-level error is reserved for ctx firing.
func (st *Store) AggregateBatch(ctx context.Context, queries []BatchQuery, opts AggOptions) ([]BatchValue, error) {
	items := make([]query.BatchItem, len(queries))
	for i, q := range queries {
		a, err := query.ParseAggregate(string(q.Agg))
		if err != nil {
			return nil, fmt.Errorf("seqstore: batch query %d: %w", i, err)
		}
		items[i] = query.BatchItem{Agg: a, Sel: query.Selection{Rows: q.Rows, Cols: q.Cols}}
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	results, err := query.EvaluateBatch(st.s, items, query.Options{Workers: opts.Workers, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	out := make([]BatchValue, len(results))
	for i, r := range results {
		out[i] = BatchValue{Value: r.Value, Err: r.Err}
	}
	return out, nil
}

// AggregateExact evaluates the same aggregate on the original uncompressed
// dataset, for measuring query error.
func AggregateExact(x *Matrix, agg Aggregate, rows, cols []int) (float64, error) {
	a, err := query.ParseAggregate(string(agg))
	if err != nil {
		return 0, err
	}
	return query.EvaluateMatrix(x.m, a, query.Selection{Rows: rows, Cols: cols})
}

// RandomSelection draws a row set and column set jointly covering
// approximately frac of the cells of an n×m dataset, as in the paper's
// aggregate-query experiment. Deterministic for a given seed.
func RandomSelection(n, m int, frac float64, seed int64) (rows, cols []int) {
	sel := query.RandomSelection(rand.New(rand.NewSource(seed)), n, m, frac)
	return sel.Rows, sel.Cols
}

// AllRows returns [0, 1, …, n−1], a convenience for whole-dataset
// aggregates.
func AllRows(n int) []int { return query.All(n) }

// Range returns [lo, lo+1, …, hi−1]. It panics if hi < lo.
func Range(lo, hi int) []int {
	if hi < lo {
		panic(fmt.Sprintf("seqstore: Range(%d, %d) is inverted", lo, hi))
	}
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// ParseIndexSpec parses a human-friendly index selection — comma-separated
// indices and half-open lo:hi ranges, mixed freely ("3,17,0:10") — used by
// the CLI and HTTP query front ends. An empty spec selects all of [0, n).
// Negative indices and inverted ranges are rejected at parse time with a
// clear error, and an index ≥ n with ErrOutOfRange, before any index is
// allocated.
//
// Duplicate indices (explicit repeats or overlapping ranges) are
// intentionally preserved: a selection is a multiset, so a duplicated row
// or column weights its cells multiply in aggregates over the selection
// cross product.
func ParseIndexSpec(spec string, n int) ([]int, error) {
	return query.ParseIndexSpec(spec, n)
}
