package query

import (
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/trace"
)

// This file implements scan-sharing batch evaluation. A dashboard refresh
// or a proxy tier fans one user action into many aggregates whose
// selections overlap heavily; evaluated independently, each re-reads the
// same U rows from disk. EvaluateBatch instead prefetches the union of
// the selected rows in one coalesced pass over U and then evaluates every
// aggregate with exactly the sequential engine's arithmetic, serving its
// U reads from the shared buffer. k overlapping queries therefore cost
// ~one scan instead of k, and — because the per-item evaluation code path,
// chunking and accumulation order are byte-for-byte the sequential ones —
// every result is bit-identical to an independent EvaluateOpts call with
// the same worker count.

// BatchItem is one aggregate request inside an EvaluateBatch call.
type BatchItem struct {
	Agg Aggregate
	Sel Selection
}

// BatchResult is one item's outcome. Err is the item-scoped error
// (validation, evaluation); items fail independently, matching the
// /v1/bulk idiom.
type BatchResult struct {
	Value float64
	Err   error
}

// maxPrefetchFloats caps the shared U-row buffer at 32 MB of float64s;
// batches whose row union would exceed it fall back to unshared reads
// rather than ballooning the serving process.
const maxPrefetchFloats = 1 << 22

// EvaluateBatch evaluates items over s, sharing one pass over U across
// all SVD-family selections. Per-item failures land in the corresponding
// BatchResult; the error return is reserved for whole-batch aborts
// (context cancellation), after which the remaining results are
// unevaluated.
//
// Results are bit-identical to calling EvaluateOpts per item with the
// same Options: the shared buffer only changes where U bits are read
// from, never the arithmetic or its order.
func EvaluateBatch(s store.Store, items []BatchItem, opts Options) ([]BatchResult, error) {
	results := make([]BatchResult, len(items))
	err := evaluateBatch(s, items, opts, func(idx int, st *evalState, err error) {
		if err == nil {
			results[idx].Value, err = st.value(items[idx].Agg)
		}
		results[idx].Err = err
	})
	return results, err
}

// evaluateBatch is the one batch loop: validate every item, prefetch the
// valid items' row union, then run each through the single-query evaluate
// on one pooled state, handing emit either the filled state or the item's
// error. A batch with fewer than two queries that read rows has no scan to
// share, so it skips the prefetch before allocating anything: a batch of
// one is the query. The error return is the whole-batch abort (context
// cancellation).
func evaluateBatch(s store.Store, items []BatchItem, opts Options, emit func(idx int, st *evalState, err error)) error {
	if len(items) == 0 {
		return nil
	}
	env := opts.env()
	n, m := s.Dims()
	var invalid []bool // allocated at the first invalid item
	readers := 0
	for idx := range items {
		if err := items[idx].Sel.Validate(n, m); err != nil {
			if invalid == nil {
				invalid = make([]bool, len(items))
			}
			invalid[idx] = true
			emit(idx, nil, err)
		} else if items[idx].Agg != Count {
			readers++
		}
	}
	if fac := factored(s); fac != nil && readers >= 2 {
		env.buf = prefetchBatchUnion(fac.Base(), n, items, invalid, env.led)
	}
	st := getState()
	defer st.release()
	for idx := range items {
		if invalid != nil && invalid[idx] {
			continue
		}
		if err := env.ctx.Err(); err != nil {
			return err
		}
		emit(idx, st, st.evaluate(env, s, items[idx].Agg, items[idx].Sel))
	}
	return nil
}

// uBuf is the batch-scoped buffer of prefetched raw (σ-unscaled) U rows.
// Reads from it are charged to the ledger as rows served with no disk
// access; the prefetch pass itself carried the disk charges. All methods
// are nil-safe.
type uBuf struct {
	k    int
	slot []int32 // per U row: 1 + its row offset into data, 0 when absent
	data []float64
}

// row returns the buffered U row i, or nil when absent. The returned
// slice is shared read-only state: callers copy before mutating.
func (b *uBuf) row(i int) []float64 {
	if b == nil {
		return nil
	}
	o := int(b.slot[i]) - 1
	if o < 0 {
		return nil
	}
	return b.data[o*b.k : (o+1)*b.k : (o+1)*b.k]
}

// prefetchBatchUnion reads the union of the valid items' selected rows
// into a shared buffer with one coalesced pass over U, charging the
// ledger for the actual reads. skip, when non-nil, marks the items that
// failed validation and stay out of the union. It returns nil — falling
// back to unshared per-item reads — when the batch has no row overlap to
// exploit, when the union would exceed the memory cap, or when a read
// fails (the per-item evaluation will then surface the store error with
// context).
func prefetchBatchUnion(base *svd.Store, n int, items []BatchItem, skip []bool, led *trace.Ledger) *uBuf {
	// slot marks the union with a placeholder first; the pass below
	// replaces it with each row's place in the buffer.
	slot := make([]int32, n)
	total, distinct := 0, 0
	for idx := range items {
		if (skip != nil && skip[idx]) || items[idx].Agg == Count {
			continue
		}
		for _, r := range items[idx].Sel.Rows {
			total++
			if slot[r] == 0 {
				slot[r] = 1
				distinct++
			}
		}
	}
	k := base.K()
	if distinct == 0 || total <= distinct || distinct*k > maxPrefetchFloats {
		return nil
	}
	buf := &uBuf{k: k, slot: slot, data: make([]float64, distinct*k)}
	next := 0
	scratch := make([]float64, k)
	for start := 0; start < n; {
		if slot[start] == 0 {
			start++
			continue
		}
		end := start + 1
		for end < n && slot[end] != 0 {
			end++
		}
		led.AddDiskAccesses(int64(end - start))
		led.AddPagesTouched(int64(base.UPageSpan(start, end)))
		if end-start >= minScanRun {
			err := base.ScanURows(start, end, func(i int, u []float64) error {
				copy(buf.data[next*k:(next+1)*k], u)
				next++
				slot[i] = int32(next)
				return nil
			})
			if err != nil {
				return nil
			}
		} else {
			for i := start; i < end; i++ {
				if err := base.URow(i, scratch); err != nil {
					return nil
				}
				copy(buf.data[next*k:(next+1)*k], scratch)
				next++
				slot[i] = int32(next)
			}
		}
		start = end
	}
	return buf
}
