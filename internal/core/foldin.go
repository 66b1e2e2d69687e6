package core

import (
	"math"

	"seqstore/internal/pqueue"
	"seqstore/internal/store"
)

// negligibleDelta is the smallest residual a fold pins: below it a delta
// repairs rounding noise, which is all a store compressed from exactly
// low-rank data has for τ.
const negligibleDelta = 1e-12

// Appendable reports whether a fold can grow the store's SVD base (see
// svd.Store.Appendable).
func (s *Store) Appendable() bool { return s.base.Appendable() }

// Fold appends a new sequence to the store without recompressing: the row
// is folded into the SVD part (see svd.Store.FoldIn), and every cell whose
// residual exceeds τ, the smallest stored |δ|, is pinned with a delta. That
// is §4.2's selection with τ as the threshold instead of γ as the count, so
// every cell of a folded row, as of a compressed one, is a stored delta or
// within τ of its value, and τ does not move. A store with no deltas has
// no bound (τ = +Inf) and pins nothing; a Plain store has no place for
// deltas. U row and deltas are kept at the store's precision.
//
// The deltas grow the store by up to 3·M numbers per row beyond its
// budget; recompress offline to re-optimize, as the paper's batching
// assumption intends. Fold either appends the row and returns its index,
// or leaves the store untouched and returns -1 and the error. It is not
// safe for use concurrently with readers; the ingestion tier serializes it
// behind a write lock.
func (s *Store) Fold(row []float64) (int, error) {
	limit := max(s.tau, negligibleDelta)
	return s.fold(row, func(resid []float64) {
		for j, d := range resid {
			if math.Abs(d) > limit {
				s.pin(j, d)
			}
		}
	})
}

// FoldIn is Fold with a per-row cap instead of the store's bound: up to
// maxDeltas of the row's worst cells are pinned, whatever τ says, and none
// when maxDeltas ≤ 0.
//
// Deprecated: the cap breaks the store's bound on the cells it leaves out;
// use Fold. It is kept for the frozen benchmark and for the fixture that
// pins its bytes.
func (s *Store) FoldIn(row []float64, maxDeltas int) (int, error) {
	return s.fold(row, func(resid []float64) {
		if maxDeltas <= 0 {
			return
		}
		q := pqueue.NewTopK(maxDeltas)
		for j, d := range resid {
			if d != 0 {
				q.Offer(pqueue.Item{Col: j, Delta: d})
			}
		}
		for _, it := range q.Items() {
			if math.Abs(it.Delta) >= negligibleDelta {
				s.pin(it.Col, it.Delta)
			}
		}
	})
}

// fold appends row to the base and, in an SVDD store, hands choose the
// row's residual to pin cells from. The reconstruction is the one
// svd.Store.FoldIn computed, bit-equal to the row's reads, so nothing is
// read back and nothing can fail past the append. It then closes the delta
// index over the new last row, whose deltas choose appended at the tail,
// and drops the column-major view and the extremum index, which the next
// factored aggregate and the next min or max rebuild over the grown store.
func (s *Store) fold(row []float64, choose func(resid []float64)) (int, error) {
	idx, recon, err := s.base.FoldIn(row)
	if err != nil {
		return -1, err
	}
	s.colView.Store(nil)
	s.extrema.Store(nil)
	if s.method == store.MethodSVDD {
		for j, xv := range row {
			recon[j] = xv - recon[j]
		}
		choose(recon)
	}
	s.rowStart = append(s.rowStart, uint32(len(s.cols)))
	s.sortBucket(idx)
	return idx, nil
}

// pin stores a delta in column col of the row being folded.
func (s *Store) pin(col int, d float64) {
	d = s.base.Round(d)
	s.cols, s.vals = append(s.cols, int32(col)), append(s.vals, d)
	s.deltaMax = max(s.deltaMax, math.Abs(d))
}
