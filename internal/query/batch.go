package query

import (
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/trace"
)

// This file implements scan-sharing batch evaluation. A dashboard refresh
// or a proxy tier fans one user action into many aggregates whose
// selections overlap heavily; evaluated independently, each re-reads the
// same U rows. When U is resident, EvaluateBatch instead charges the union
// of the selected rows once — one access per row and the pages of each run,
// the cost of one coalesced pass — and every aggregate then reads resident U
// in place with exactly the sequential engine's arithmetic and no second
// charge. k overlapping queries therefore cost ~one scan instead of k, and
// — because the per-item evaluation code path, chunking and accumulation
// order are byte-for-byte the sequential ones — every result is
// bit-identical to an independent EvaluateOpts call with the same worker
// count. Over a U on disk nothing is shared: the items run, and are
// charged, as independent queries.

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

// EvaluateBatch evaluates items over s, sharing one charge for U across
// all SVD-family selections when U is resident. Per-item failures land in
// the corresponding BatchResult; the error return is reserved for
// whole-batch aborts (context cancellation), after which the remaining
// results are unevaluated.
//
// Results are bit-identical to calling EvaluateOpts per item with the
// same Options: sharing only changes what the ledger charges, never the
// arithmetic or its order.
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

// evaluateBatch is the one batch loop: validate every item, charge the
// valid items' row union, then run each through the single-query evaluate
// on one pooled state, handing emit either the filled state or the item's
// error. A batch with fewer than two queries that read rows has no scan to
// share, so it skips the union before allocating anything: a batch of one
// is the query. The error return is the whole-batch abort (context
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
	if fac := factored(s); fac != nil && readers >= 2 && fac.Base().UResident() {
		env.paid = chargeBatchUnion(fac.Base(), n, items, invalid, env.led)
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

// chargeBatchUnion charges the union of the valid items' selected rows
// once, as one pass over resident U would cost it: per run of consecutive
// union rows, one disk access per row and the pages spanned on the ledger,
// and the rows on U's read counter. It reports whether it did, after which
// the items read U in place uncharged. skip, when non-nil, marks the items
// that failed validation and stay out of the union. A batch with no row
// overlap has nothing to share and charges nothing here: its items pay for
// their reads as lone queries do.
func chargeBatchUnion(base *svd.Store, n int, items []BatchItem, skip []bool, led *trace.Ledger) bool {
	union := make([]uint64, (n+63)/64)
	in := func(i int) bool { return union[i/64]&(1<<(i%64)) != 0 }
	total, distinct := 0, 0
	for idx := range items {
		if (skip != nil && skip[idx]) || items[idx].Agg == Count {
			continue
		}
		for _, r := range items[idx].Sel.Rows {
			total++
			if !in(r) {
				union[r/64] |= 1 << (r % 64)
				distinct++
			}
		}
	}
	if total <= distinct {
		return false
	}
	for start := 0; start < n; {
		if !in(start) {
			start++
			continue
		}
		end := start + 1
		for end < n && in(end) {
			end++
		}
		led.AddDiskAccesses(int64(end - start))
		led.AddPagesTouched(int64(base.UPageSpan(start, end)))
		if _, err := base.URows(start, end, nil, true); err != nil {
			return false
		}
		start = end
	}
	return true
}
