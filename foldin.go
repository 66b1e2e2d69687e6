package seqstore

import "fmt"

// FoldIn appends a new sequence to an SVD- or SVDD-backed store without
// recompressing, by projecting it onto the existing principal components
// (the classic folding-in technique). For SVDD stores, every cell of the
// new row reconstructed worse than the store's bound τ — the smallest
// stored delta — is additionally pinned with an exact delta, so the folded
// row keeps the bound the compressed rows have; a store with no deltas has
// no bound and pins nothing, and plain SVD takes no deltas. Each pinned
// cell costs 3 numbers, so a fold grows the store by up to 3·M numbers
// beyond k.
//
// Folding in trades space or accuracy for convenience: rows far outside
// the subspace captured at compression time take many deltas under SVDD
// and reconstruct poorly under plain SVD. Recompress once enough rows
// have accumulated — the paper's batched-updates assumption (§1). The
// online ingestion tier (internal/ingest) automates exactly that: it
// batches appended rows in a WAL-backed hot segment, folds them in as they
// cool, and recompresses past a delta-growth threshold.
//
// Error contract: FoldIn either appends the row completely and returns its
// index with a nil error, or leaves the store untouched and returns (-1,
// err). It never reports index 0 for a row that exists. If the store
// carries row labels, the new row is appended with an empty label (rename
// it with SetLabels), so labels, Dims and Save stay in agreement after a
// fold-in.
//
// FoldIn takes the store's write lock, so it is safe to call concurrently
// with queries: readers observe the store either entirely before or
// entirely after the append, never mid-mutation.
func (st *Store) FoldIn(row []float64) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.factored()
	if c == nil {
		return -1, fmt.Errorf("seqstore: %s stores do not support fold-in", st.s.Method())
	}
	idx, err := c.Fold(row)
	if err != nil {
		return idx, err
	}
	// Keep row labels in lockstep with the grown store: the new row gets an
	// empty label so RowLabels/Save and Dims never disagree.
	if st.labels != nil && st.labels.Rows != nil {
		st.labels.Rows = append(st.labels.Rows, "")
	}
	return idx, nil
}
