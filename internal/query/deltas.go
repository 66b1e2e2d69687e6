package query

import (
	"math/bits"
	"slices"

	"seqstore/internal/core"
)

// This file is the SVDD delta overlay's view of a selection. An aggregate
// over an SVDD store is the plain-SVD aggregate plus the stored deltas of
// the selected cells, and reaching those costs what the deltas cost: the
// store's row index hands a run of consecutive rows its deltas as one slab
// (core.DeltaSlab), and everything that has to be known of the selection
// to use a slab — which columns are selected, how often, at which
// positions, and which distinct rows, how often — is derived once per
// evaluation into the digest below, in buffers the pooled plan reuses,
// instead of into maps.

// rowRun is a run [lo, hi) of consecutive distinct selected rows that all
// appear mult times in the selection.
type rowRun struct {
	lo, hi, mult int
}

// selDigest is the selection as the delta overlay reads it. Columns: how
// many times each of the M columns is selected (0: not at all) — all the
// factored corrections ask — and a dense CSR from column to its positions
// in the selection's column list, pos[colStart[j]:colStart[j+1]], for the
// projected overlay. Rows: the distinct selected rows in ascending order,
// as runs.
type selDigest struct {
	colMult  []int32 // M
	colStart []int32 // M+1
	pos      []int32 // |C|
	rowRuns  []rowRun
}

// buildDigest fills the plan's selection digest. Strictly ascending rows —
// every range, every sorted list — are their own digest: each scan run is a
// row run of multiplicity 1. Any other multiset (duplicates, descending,
// interleaved) is swept: the runs' first rows and ends, each sorted, mark
// where a row's multiplicity changes, in O(runs log runs).
func (p *plan) buildDigest() *selDigest {
	d := &p.digest
	_, m := p.fac.Dims()
	// The counting sort of buildRowIndex: count into colStart[j+2],
	// prefix-sum, and let the scatter advance colStart[j+1] from column
	// j's first slot to its end.
	d.colMult = zeroedInt32s(d.colMult, m)
	start := zeroedInt32s(d.colStart, m+2)
	for _, j := range p.cols {
		d.colMult[j]++
		start[j+2]++
	}
	for j := 2; j < len(start); j++ {
		start[j] += start[j-1]
	}
	d.pos = zeroedInt32s(d.pos, len(p.cols))
	for at, j := range p.cols {
		d.pos[start[j+1]] = int32(at)
		start[j+1]++
	}
	d.colStart = start[:m+1]

	d.rowRuns = d.rowRuns[:0]
	if p.ascending {
		for _, run := range p.runs {
			d.rowRuns = append(d.rowRuns, rowRun{lo: run.first, hi: run.end(), mult: 1})
		}
		return d
	}
	starts, ends := slices.Grow(p.starts[:0], len(p.runs)), slices.Grow(p.ends[:0], len(p.runs))
	for _, run := range p.runs {
		starts, ends = append(starts, run.first), append(ends, run.end())
	}
	slices.Sort(starts)
	slices.Sort(ends)
	p.starts, p.ends = starts, ends
	// Every start precedes its end, so the ends are the last events: rows
	// [x, next) between two event positions share the multiplicity mult,
	// and abutting stretches of one multiplicity merge into one row run.
	mult := 0
	for a, b := 0, 0; b < len(ends); {
		x := ends[b]
		if a < len(starts) && starts[a] < x {
			x = starts[a]
		}
		for ; a < len(starts) && starts[a] == x; a++ {
			mult++
		}
		for ; b < len(ends) && ends[b] == x; b++ {
			mult--
		}
		if mult == 0 {
			continue
		}
		next := ends[b]
		if a < len(starts) && starts[a] < next {
			next = starts[a]
		}
		if last := len(d.rowRuns) - 1; last >= 0 && d.rowRuns[last].hi == x && d.rowRuns[last].mult == mult {
			d.rowRuns[last].hi = next
		} else {
			d.rowRuns = append(d.rowRuns, rowRun{lo: x, hi: next, mult: mult})
		}
	}
	return d
}

// zeroedInt32s returns s resized to n and zeroed, reusing its backing array
// when the capacity allows.
func zeroedInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// The factored corrections reach the deltas of the selected cells by one
// of two walks, chosen per evaluation by selDigest.columnWalk:
//
//   - the row walk (deltaWalk): the distinct selected rows in ascending
//     order, a slab of the row index per run, every delta of every such row
//     probed whatever its column;
//   - the column walk (evalState.columnCorrections): for each distinct
//     selected column, the span of each row run among the column's deltas
//     (core.DeltaColumns), bounded by two binary searches, so only the
//     deltas of selected cells are visited.
//
// Both fold the same terms — δ and the precomputed 2·b·δ + δ², scaled by
// the cell's multiplicity — into exact sums, which do not depend on order,
// so the choice reaches the cost and never a register.

// deltaWalk is the row walk over the deltas of a plan's selected cells: the
// distinct selected rows in ascending order, a slab per run, stopping at
// each row that holds a delta in a selected column. (The projected overlay
// meets its rows in selection order, a piece at a time — readURows — and
// reads each piece's slab through the same digest.) A value type driven by
// next; nothing here allocates.
type deltaWalk struct {
	fac  *core.Store
	dg   *selDigest
	runs []rowRun // runs not yet opened

	slab    core.DeltaSlab // the open run's
	at, end int            // rows of the open run still to visit

	// Where the walk stopped: the row, its multiplicity, its whole bucket,
	// and the bucket index of its first delta in a selected column.
	row, mult int
	cols      []int32
	vals      []float64
	first     int

	probed int64 // deltas in the buckets of every run opened so far
}

// deltaWalk starts the row walk over the plan's digest dg.
func (p *plan) deltaWalk(dg *selDigest) deltaWalk {
	return deltaWalk{fac: p.fac, dg: dg, runs: dg.rowRuns}
}

// next advances to the next row holding a delta in a selected column,
// reporting false once every run is exhausted. Opening a run charges the
// store one bucket lookup per row of the run, at once.
func (w *deltaWalk) next() bool {
	for {
		for w.at < w.end {
			w.row = w.at
			w.at++
			w.cols, w.vals = w.slab.Row(w.row)
			for x, col := range w.cols {
				if w.dg.colMult[col] != 0 {
					w.first = x
					return true
				}
			}
		}
		if len(w.runs) == 0 {
			return false
		}
		run := w.runs[0]
		w.runs = w.runs[1:]
		w.slab = w.fac.DeltaSlab(run.lo, run.hi)
		w.at, w.end, w.mult = run.lo, run.hi, run.mult
		w.probed += int64(w.slab.Len())
	}
}

// columnWalk reports whether the corrections take the column walk: whether
// it is expected to probe fewer deltas than the row walk. The row walk
// probes every delta of the distinct selected rows, which the row offsets
// count. The column walk probes, per distinct selected column and row run,
// the entries its two binary searches read (searchReads of the column's
// length each, from the column offsets), plus the deltas inside the spans
// — unknown before the walk, and estimated as the selected columns' share
// of the row walk's. The inputs are the digest and the offsets alone, so
// EXPLAIN makes the same choice.
func (dg *selDigest) columnWalk(dc *core.DeltaColumns) bool {
	var rowCost int64
	for _, run := range dg.rowRuns {
		a, b := dc.RowBounds(run.lo, run.hi)
		rowCost += int64(b - a)
	}
	var search, cols int64
	for j, cj := range dg.colMult {
		if cj != 0 {
			cols++
			search += int64(2 * len(dg.rowRuns) * searchReads(dc.Len(j)))
		}
	}
	return float64(search)+float64(rowCost)*float64(cols)/float64(len(dg.colMult)) < float64(rowCost)
}

// lowerBound returns the index of the first entry of pos (ascending) that
// is at least x, len(pos) if none. It halves a fixed number of times, so
// it always reads exactly searchReads(len(pos)) entries.
func lowerBound(pos []uint32, x uint32) int {
	n := len(pos)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		if pos[base+half] < x {
			base += half
		}
		n -= half
	}
	if pos[base] < x {
		base++
	}
	return base
}

// searchReads is the number of entries lowerBound reads in n entries:
// ⌈log₂ n⌉ halvings and a last comparison.
func searchReads(n int) int {
	if n == 0 {
		return 0
	}
	return bits.Len(uint(n-1)) + 1
}
