package query

import (
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
// interleaved) is sorted and counted.
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
			lo := p.rows[run.lo]
			d.rowRuns = append(d.rowRuns, rowRun{lo: lo, hi: lo + run.hi - run.lo, mult: 1})
		}
		return d
	}
	p.sorted = append(p.sorted[:0], p.rows...)
	slices.Sort(p.sorted)
	sorted := p.sorted
	for a := 0; a < len(sorted); {
		b := a + 1
		for b < len(sorted) && sorted[b] == sorted[a] {
			b++
		}
		i, mult := sorted[a], b-a
		if last := len(d.rowRuns) - 1; last >= 0 && d.rowRuns[last].hi == i && d.rowRuns[last].mult == mult {
			d.rowRuns[last].hi++
		} else {
			d.rowRuns = append(d.rowRuns, rowRun{lo: i, hi: i + 1, mult: mult})
		}
		a = b
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

// deltaWalk is the one walk over the deltas of a plan's selected cells:
// the distinct selected rows in ascending order, a slab per run, stopping
// at each row that holds a delta in a selected column. The factored
// corrections fold what it stops at and EXPLAIN counts it, so the cost
// model is the engine's own loop. (The projected overlay meets its rows in
// selection order, a piece at a time — readURows — and reads each piece's
// slab through the same digest.) A value type driven by next; nothing here
// allocates.
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

// deltaWalk builds the plan's digest and starts the walk over it.
func (p *plan) deltaWalk() deltaWalk {
	dg := p.buildDigest()
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
