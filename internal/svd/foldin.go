package svd

import (
	"errors"
	"fmt"
)

// ErrNotAppendable is returned by FoldIn when the store's U backing cannot
// grow (e.g. it is a read-only disk file).
var ErrNotAppendable = errors.New("svd: store's U backing is not appendable")

// rowAppender is satisfied by U backings that can grow (matio.Mem).
type rowAppender interface {
	AppendRow(row []float64) int
}

// rowTruncater is satisfied by U backings that can shrink back to a prefix
// of their rows (matio.Mem). It enables fold-in rollback.
type rowTruncater interface {
	TruncateRows(n int)
}

// Appendable reports whether FoldIn can grow this store — true for
// memory-backed U, false for a read-only disk file. The ingestion tier
// probes this at attach time instead of failing at the first compaction.
func (s *Store) Appendable() bool {
	_, ok := s.u.(rowAppender)
	return ok
}

// FoldIn appends a new sequence to the store without recomputing the
// factorization, using the classic folding-in technique: the new row is
// projected onto the existing principal components, u = x·V·Σ⁻¹ — exactly
// the pass-2 projection (Eq. 11), applied to one row.
//
// This addresses the paper's batching assumption (§1: updates "can be
// batched and performed off-line"): new customers can be absorbed online
// between offline recompressions. The approximation is as good as the
// existing components' ability to express the new row; rows far outside
// the original subspace reconstruct poorly until the next recompression
// (SVDD's FoldIn can pin their worst cells with deltas).
//
// The U row is kept at the store's precision (Round), as its file will hold
// it. It returns the index of the new row; on error the store is untouched
// and the index is -1 (never a live row's index). The store must be
// memory-backed.
func (s *Store) FoldIn(row []float64) (int, error) {
	if len(row) != s.cols {
		return -1, fmt.Errorf("svd: folding in row of length %d, want %d", len(row), s.cols)
	}
	app, ok := s.u.(rowAppender)
	if !ok {
		return -1, ErrNotAppendable
	}
	urow := make([]float64, len(s.sigma))
	for j, xv := range row {
		if xv == 0 {
			continue
		}
		vrow := s.v.Row(j)
		for mm := range urow {
			urow[mm] += xv * vrow[mm]
		}
	}
	for mm := range urow {
		urow[mm] = s.Round(urow[mm] / s.sigma[mm])
	}
	idx := app.AppendRow(urow)
	s.rows++
	return idx, nil
}

// UndoFoldIn rolls back the most recent FoldIn: the appended U row is
// dropped and the store shrinks to n-1 rows. idx must be the index the
// FoldIn being undone returned (the current last row); any other value is
// rejected, so a rollback can never discard an unrelated row. It is the
// compensating action for callers whose post-append step fails — after a
// successful UndoFoldIn the store is bit-identical to its pre-FoldIn state.
func (s *Store) UndoFoldIn(idx int) error {
	if idx != s.rows-1 {
		return fmt.Errorf("svd: undo fold-in of row %d, but last row is %d", idx, s.rows-1)
	}
	tr, ok := s.u.(rowTruncater)
	if !ok {
		return ErrNotAppendable
	}
	tr.TruncateRows(s.rows - 1)
	s.rows--
	return nil
}
