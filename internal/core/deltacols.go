package core

import (
	"fmt"
	"sync/atomic"

	"seqstore/internal/linalg"
)

// DeltaColumns is the store's delta index read by column, with each
// delta's second-moment term precomputed. For every delta, in the
// row-major order of the index,
//
//	t = 2·b·δ + δ²,
//
// where b = Dot(u_i∘σ, v_j) is the cell's SVD baseline — the shift a delta
// makes to its cell's square, (b+δ)² − b², which depends on the store and
// never on a query. A factored aggregate folds these terms instead of
// reading a U row and running a dot per delta. Per column, the view lists
// the row-major positions of the column's deltas in ascending order, which
// is ascending by row: the deltas of rows [lo, hi) in column j are the
// positions in [rowStart[lo], rowStart[hi]), found by binary search.
//
// The view is main-memory only and costs 12 bytes per delta (a term and a
// position); δ and the row offsets are the index's own. The store builds it
// on the first call of Store.DeltaColumns and drops it on every fold. It is
// read-only once built.
type DeltaColumns struct {
	colStart []uint32  // M+1: column j's positions are pos[colStart[j]:colStart[j+1]]
	pos      []uint32  // row-major positions, column by column, ascending
	terms    []float64 // row-major: 2·b·δ + δ², parallel to vals

	rowStart []uint32      // the index's row offsets
	vals     []float64     // the index's deltas
	probes   *atomic.Int64 // the store's bucket-read counter (RowProbes)
}

// DeltaColumns returns the column-major view of the delta index, building
// it on first use: one U read per row holding a delta, uncounted on U's
// read counter (the build serves no request), and one Dot per delta. Safe
// for concurrent use; the view stays valid until the next fold, which drops
// it (Fold excludes readers).
func (s *Store) DeltaColumns() (*DeltaColumns, error) {
	if dc := s.colView.Load(); dc != nil {
		return dc, nil
	}
	s.colViewMu.Lock()
	defer s.colViewMu.Unlock()
	if dc := s.colView.Load(); dc != nil {
		return dc, nil
	}
	dc, err := s.buildDeltaColumns()
	if err != nil {
		return nil, err
	}
	s.colView.Store(dc)
	return dc, nil
}

// DeltaColumnsBytes reports the bytes the column-major view holds: 0 until
// a factored aggregate builds it, and again after a fold drops it.
func (s *Store) DeltaColumnsBytes() int {
	dc := s.colView.Load()
	if dc == nil {
		return 0
	}
	return 4*len(dc.colStart) + 4*len(dc.pos) + 8*len(dc.terms)
}

// buildDeltaColumns lists each column's positions with one counting sort
// of the row-major index, which leaves them ascending. Each term is
// computed exactly as the per-delta fold it replaces computed it: the U
// row scaled by σ, then Dot against the column's V row.
func (s *Store) buildDeltaColumns() (*DeltaColumns, error) {
	n, m := s.base.Dims()
	start := make([]uint32, m+2)
	for _, j := range s.cols {
		start[j+2]++
	}
	for j := 2; j < len(start); j++ {
		start[j] += start[j-1]
	}
	dc := &DeltaColumns{
		pos:      make([]uint32, len(s.cols)),
		terms:    make([]float64, len(s.cols)),
		rowStart: s.rowStart,
		vals:     s.vals,
		probes:   &s.rowProbes,
	}
	sigma, v := s.base.Sigma(), s.base.V()
	urow := make([]float64, len(sigma))
	var scratch []float64
	for i := 0; i < n; i++ {
		lo, hi := s.rowStart[i], s.rowStart[i+1]
		if lo == hi {
			continue
		}
		u, err := s.base.URows(i, i+1, &scratch, false)
		if err != nil {
			return nil, fmt.Errorf("core: delta row %d: %w", i, err)
		}
		for c := range urow {
			urow[c] = u[c] * sigma[c]
		}
		for p := lo; p < hi; p++ {
			col, delta := s.cols[p], s.vals[p]
			b := linalg.Dot(urow, v.Row(int(col)))
			dc.terms[p] = 2*b*delta + delta*delta
			dc.pos[start[col+1]] = p
			start[col+1]++
		}
	}
	dc.colStart = start[:m+1]
	return dc, nil
}

// Column returns the row-major positions of column j's deltas, ascending
// (so by row); read-only.
func (dc *DeltaColumns) Column(j int) []uint32 {
	return dc.pos[dc.colStart[j]:dc.colStart[j+1]]
}

// Len is the number of deltas column j holds.
func (dc *DeltaColumns) Len(j int) int { return int(dc.colStart[j+1] - dc.colStart[j]) }

// RowBounds returns the row-major positions [a, b) that rows [lo, hi)
// span, 0 ≤ lo ≤ hi ≤ N: a column's deltas in those rows are its positions
// inside them.
func (dc *DeltaColumns) RowBounds(lo, hi int) (a, b uint32) {
	return dc.rowStart[lo], dc.rowStart[hi]
}

// Values returns δ and t of every delta, indexed by row-major position
// (Column's entries, DeltaSlab.Slot); read-only.
func (dc *DeltaColumns) Values() (vals, terms []float64) { return dc.vals, dc.terms }

// ChargeColumns records n column-bucket reads on the store's RowProbes.
func (dc *DeltaColumns) ChargeColumns(n int) { dc.probes.Add(int64(n)) }
