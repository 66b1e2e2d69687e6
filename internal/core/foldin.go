package core

import (
	"fmt"
	"math"

	"seqstore/internal/pqueue"
	"seqstore/internal/store"
)

// Appendable reports whether FoldIn can grow the store's SVD base (see
// svd.Store.Appendable).
func (s *Store) Appendable() bool { return s.base.Appendable() }

// FoldIn appends a new sequence to the SVDD store without recompressing:
// the row is folded into the SVD part (see svd.Store.FoldIn), its
// reconstruction error is measured cell by cell, and up to maxDeltas of the
// worst cells are pinned with exact deltas — the same repair SVDD applies
// during compression, done incrementally. A Plain store takes no deltas,
// whatever maxDeltas says: its format has no place to save them.
//
// Folded-in deltas grow the store beyond its original budget by 3·maxDeltas
// numbers per call; recompress offline to re-optimize, as the paper's
// batching assumption intends. Returns the index of the new row.
//
// FoldIn is atomic: it either appends the row completely (returning its
// index) or leaves the store untouched (returning -1 and the error). When
// the post-append reconstruction read fails, the appended U row is rolled
// back via svd.Store.UndoFoldIn before the error is returned, so the caller
// never observes a half-folded row — and the returned index is never 0 for
// a row that actually exists.
//
// FoldIn is not safe for use concurrently with readers; the ingestion tier
// (internal/ingest) serializes it behind a write lock.
func (s *Store) FoldIn(row []float64, maxDeltas int) (int, error) {
	idx, err := s.base.FoldIn(row)
	if err != nil {
		return -1, err
	}
	if maxDeltas <= 0 || s.method == store.MethodSVD {
		s.indexFoldedRow(idx)
		return idx, nil
	}
	_, m := s.base.Dims()
	recon := make([]float64, m)
	if _, err := s.base.Row(idx, recon); err != nil {
		// The append succeeded but the row cannot be read back: roll the
		// append back so the store is exactly its pre-call self. If even the
		// rollback fails the store has genuinely grown — report the real
		// index alongside the error rather than pretending the row is at 0,
		// and index the row (it holds no deltas) like any other that stays.
		if uerr := s.base.UndoFoldIn(idx); uerr != nil {
			s.indexFoldedRow(idx)
			return idx, fmt.Errorf("core: fold-in row %d unreadable (%w); rollback also failed: %v", idx, err, uerr)
		}
		return -1, fmt.Errorf("core: fold-in rolled back: %w", err)
	}
	q := pqueue.NewTopK(maxDeltas)
	for j, xv := range row {
		if d := xv - recon[j]; d != 0 {
			q.Offer(pqueue.Item{Row: idx, Col: j, Delta: d})
		}
	}
	for _, it := range q.Items() {
		// Skip negligible corrections: a delta is only worth its 3 numbers
		// when it repairs a real error.
		if math.Abs(it.Delta) < 1e-12 {
			continue
		}
		s.cols, s.vals = append(s.cols, int32(it.Col)), append(s.vals, it.Delta)
	}
	s.indexFoldedRow(idx)
	return idx, nil
}

// indexFoldedRow closes the delta index over the freshly folded row idx —
// the last row, whose deltas FoldIn appended at the tail of cols/vals in
// error order (the top-γ queue's), not column order. It runs only once the
// fold can no longer be rolled back, so the index never describes a row
// UndoFoldIn took away, and on every path that leaves the row in the base
// — deltas or none, even a failed rollback — so rowStart stays N+1 long.
func (s *Store) indexFoldedRow(idx int) {
	s.rowStart = append(s.rowStart, uint32(len(s.cols)))
	s.sortBucket(idx)
}
