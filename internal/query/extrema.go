package query

import "math"

// This file answers a min or max from the store's extremum index
// (core.Extrema) where it can. The index lists each column's L lowest and
// L highest cells by value; a column's extremum over the selected rows R
// is the first entry of its list whose row is in R, so sorted access reads
// no U row at all. What the lists cannot settle — a column whose L entries
// all miss R while its L-th value could still win — the projected engine
// reads, over R and those columns alone, seeded with the best cell the
// lists found: a real selected cell, which a tie never replaces.
//
// The answer is the naive fold's bit for bit because, without a NaN or a
// −0 among the cells, the extremum of a set of cells has one bit pattern
// whatever order they are folded in. Where a selected column holds either
// (core.Extrema.Unordered), the fold's order decides the bits — the last
// NaN it meets, or whichever zero comes first — and the whole selection is
// projected in the engine's order. A row whose cells are all +0 is in no
// list (core.Extrema.AnyZeroRow): selecting one selects a +0 in every
// column.

// lookup consults the extremum index for a Min or Max (wantMax) over the
// selection of a freshly reset plan. When the index decides the aggregate
// it sets indexed and best — the extremum of the cells the lists found,
// ±Inf for none — and narrows the plan's columns to the ones left open,
// which the engine still projects (none when the lists settled every
// column). With no index or an unordered column it leaves the plan as it
// was. Deterministic in the index and the selection, so an evaluation and
// its EXPLAIN reach the same decision.
func (p *plan) lookup(wantMax bool) error {
	ix, err := p.fac.Extrema()
	if err != nil || ix == nil {
		return err
	}
	for _, j := range p.cols {
		if ix.Unordered(j) {
			return nil
		}
	}
	list, best := ix.Low, math.Inf(1)
	if wantMax {
		list, best = ix.High, math.Inf(-1)
	}
	// A selected row whose cells are all +0 is in no list: it puts a +0
	// in every selected column.
	n, m := p.fac.Dims()
	p.rowMark = zeroedUint64s(p.rowMark, (n+63)/64)
	for _, run := range p.runs {
		markBits(p.rowMark, run.first, run.end())
	}
	if ix.AnyZeroRow(p.rowMark) {
		best = 0
	}
	p.colMark = zeroedUint64s(p.colMark, (m+63)/64)
	p.unresolved = p.unresolved[:0]
	for _, j := range p.cols {
		if p.colMark[j/64]&(1<<(j%64)) != 0 {
			continue
		}
		p.colMark[j/64] |= 1 << (j % 64)
		// A column with no listed cell has no cell outside the all-+0 rows,
		// and R then holds only those: best is already +0.
		vals, rows := list(j)
		open := len(vals) > 0
		for x, v := range vals {
			// The list is ordered, so once an entry cannot beat best no
			// later entry, and no cell past the list, can either.
			if !beats(v, best, wantMax) {
				open = false
				break
			}
			if r := rows[x]; p.rowMark[r/64]&(1<<(r%64)) != 0 {
				best, open = v, false
				break
			}
		}
		// A column whose list missed R, and whose last entry can still
		// beat best, is open. Best only improves, so the check is repeated
		// once the walk is done.
		if open {
			p.unresolved = append(p.unresolved, j)
		}
	}
	open := p.unresolved[:0]
	for _, j := range p.unresolved {
		if vals, _ := list(j); beats(vals[len(vals)-1], best, wantMax) {
			open = append(open, j)
		}
	}
	p.indexed, p.best, p.unresolved, p.cols = true, best, open, open
	return nil
}

// markBits sets bits [lo, hi) of mark, a word at a time.
func markBits(mark []uint64, lo, hi int) {
	for lo < hi {
		b := lo % 64
		n := min(64-b, hi-lo)
		mark[lo/64] |= (^uint64(0) >> (64 - n)) << b
		lo += n
	}
}

// beats reports whether x would replace the running extremum y: for Max
// (wantMax) when it is greater, for Min when it is less.
func beats(x, y float64, wantMax bool) bool {
	if wantMax {
		return x > y
	}
	return x < y
}

// zeroedUint64s returns s resized to n and zeroed, reusing its backing
// array when the capacity allows.
func zeroedUint64s(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
