package svd

import (
	"errors"
	"fmt"

	"seqstore/internal/exact"
)

// ErrNotAppendable is returned by FoldIn when the store's U backing cannot
// grow (e.g. it is a read-only disk file).
var ErrNotAppendable = errors.New("svd: store's U backing is not appendable")

// rowAppender is satisfied by U backings that can grow (matio.Mem); AppendRow
// copies the row.
type rowAppender interface {
	AppendRow(row []float64) int
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
// (SVDD's fold pins their cells past the store's bound with deltas).
//
// The U row is kept at the store's precision (Round), as its file will hold
// it. It returns the index of the new row and its reconstruction, computed
// from the appended U row by rowFrom, the kernel Row runs: bit for bit what
// a read of the row returns, so a caller need not read it back. On error
// the store is untouched and the index is -1 (never a live row's index).
// The store must be memory-backed.
func (s *Store) FoldIn(row []float64) (int, []float64, error) {
	if len(row) != s.cols {
		return -1, nil, fmt.Errorf("svd: folding in row of length %d, want %d", len(row), s.cols)
	}
	app, ok := s.u.(rowAppender)
	if !ok {
		return -1, nil, ErrNotAppendable
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
	if nb := s.rows / exact.BlockRows; s.rows%exact.BlockRows == 0 && s.moments.Len() == nb-1 {
		// A block filled: index it. An appendable U is resident, where
		// URows reads in place and does not fail; were it to, the index
		// would stop short, which costs speed and never bits.
		var scratch []float64
		if rows, err := s.URows(s.rows-exact.BlockRows, s.rows, &scratch, false); err == nil {
			s.moments.Append(rows)
		}
	}
	recon := make([]float64, s.cols)
	s.rowFrom(urow, recon)
	return idx, recon, nil
}
