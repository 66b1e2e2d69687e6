package query

import "seqstore/internal/store"

// This file implements batch evaluation. A dashboard refresh or a proxy
// tier fans one user action into many aggregates; EvaluateBatch runs them
// in order through the single-query evaluate on one pooled state, so every
// result is bit-identical to an independent EvaluateOpts call with the same
// worker count, and a batch's ledger is its items' lone ledgers together —
// the sum of their EXPLAIN estimates. Items share no reads: the store's row
// indexes leave too little overlap between them to pay for sharing
// (DESIGN.md §14).

// BatchItem is one aggregate request inside an EvaluateBatch call. Its
// selection is Rows × Cols when Rows is a parsed spec (ScanIndexSpec,
// Split or SpecOf) — the form the HTTP door and the proxy carry, whose
// runs become the plan's schedule without a row list — and Sel otherwise.
type BatchItem struct {
	Agg        Aggregate
	Sel        Selection
	Rows, Cols IndexSpec
}

// specs reports whether the item's selection is its specs: Rows came from
// ScanIndexSpec, Split or SpecOf, which always keep a run list, rather than
// being the zero IndexSpec.
func (it *BatchItem) specs() bool { return it.Rows.runs != nil }

// validate checks the item's selection against an n×m store: non-empty,
// and every index in range. A spec is checked run by run.
func (it *BatchItem) validate(n, m int) error {
	if !it.specs() {
		return it.Sel.Validate(n, m)
	}
	if it.Rows.Len() == 0 || it.Cols.Len() == 0 {
		return ErrEmptySelection
	}
	if err := it.Rows.check(n, "row"); err != nil {
		return err
	}
	return it.Cols.check(m, "column")
}

// numCells is |R|·|C|, repeats included.
func (it *BatchItem) numCells() int64 {
	if it.specs() {
		return int64(it.Rows.Len()) * int64(it.Cols.Len())
	}
	return int64(it.Sel.NumCells())
}

// BatchResult is one item's outcome. Err is the item-scoped error
// (validation, evaluation); items fail independently, matching the
// /v1/bulk idiom.
type BatchResult struct {
	Value float64
	Err   error
}

// EvaluateBatch evaluates items over s in order. Per-item failures land
// in the corresponding BatchResult; the error return is reserved for
// whole-batch aborts (context cancellation), after which the remaining
// results are unevaluated. Each result, and each item's charge, is that of
// calling EvaluateOpts per item with the same Options.
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

// evaluateBatch is the one batch loop: each item runs through the
// single-query evaluate, which validates it, on one pooled state, and emit
// gets either the filled state or the item's error. An item that fails
// validation fails alone. The error return is the whole-batch abort
// (context cancellation).
func evaluateBatch(s store.Store, items []BatchItem, opts Options, emit func(idx int, st *evalState, err error)) error {
	env := opts.env()
	st := getState()
	defer st.release()
	for idx := range items {
		if err := env.ctx.Err(); err != nil {
			return err
		}
		emit(idx, st, st.evaluate(env, s, &items[idx]))
	}
	return nil
}
