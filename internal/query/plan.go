package query

import (
	"slices"

	"seqstore/internal/core"
	"seqstore/internal/exact"
	"seqstore/internal/store"
)

// This file derives an evaluation's plan: the state every aggregate
// evaluation builds from its selection before touching a single U row —
// the coalesced row-run schedule, on the projected path a |C|×k panel of
// the selected V rows, and on SVDD stores the selection digest the delta
// overlay reads (deltas.go). The paper's query is ad hoc: nothing is known
// of it in advance, so nothing is keyed on it or kept past it. The plan
// lives in the pooled evalState and is rebuilt for every evaluation into
// buffers the state already owns, so in steady state building it allocates
// nothing. The schedule is the plan's only form of the rows: a selection
// given as specs becomes it in O(runs) and is never listed row by row; a
// row list costs O(|R|) to read once.

// scanRun is one maximal run of consecutive ascending selected rows: the
// half-open position interval [lo, hi) of the selection, holding rows
// [first, first+hi−lo). Runs clipped to a worker chunk reproduce exactly
// the runs the unclipped serial loop would find inside that chunk, because
// consecutiveness is a local property — so a single global schedule serves
// every worker count.
type scanRun struct {
	lo, hi int
	first  int
}

// end is one past the run's last row.
func (r scanRun) end() int { return r.first + r.hi - r.lo }

// plan is one evaluation's derived state. reset points it at a store and a
// selection and builds the run schedule; the panel and the digest are
// built by the paths that read them. Everything but the store and the
// selection is a buffer the plan owns and reuses.
type plan struct {
	nrows int   // |R|: the schedule's positions, repeats included
	cols  []int // the selected columns: the caller's list or colBuf
	// colBuf holds a column spec's indices, at most M of them: a multiset
	// listing more gets a buffer of its own, which the pool does not keep.
	colBuf []int

	fac *core.Store // the factored store: non-nil on the projected/factored paths
	// overlay: fac is SVDD, so its deltas and zero-row flags overlay the
	// factors. A plain-SVD store has neither, and its plans skip the delta
	// correction pass and the selection digest.
	overlay bool
	sigma   []float64
	runs    []scanRun
	// ascending: the rows are strictly ascending — distinct, and already
	// in the order the delta walk visits them, a slab per run.
	ascending bool

	// panel is the projection panel, |C|×k row-major: the V rows of the
	// selected columns (buildPanel). Factored plans never build it.
	panel []float64
	// digest is the selection digest (buildDigest); starts and ends are
	// its sweep of the run endpoints of a selection that is not ascending.
	digest       selDigest
	starts, ends []int

	// The extremum index's answer to a min or max (lookup): indexed when
	// the index decides it, best the extremum of the cells its lists found,
	// and unresolved the columns they left open, which cols then aliases.
	// rowMark and colMark are lookup's bitsets over rows and columns.
	indexed          bool
	best             float64
	unresolved       []int
	rowMark, colMark []uint64
}

// reset points the plan at s and the item's selection, validated against
// an n×m store, and builds its run schedule.
func (p *plan) reset(s store.Store, it *BatchItem, m int) {
	if it.specs() {
		p.runs, p.ascending = specRuns(p.runs[:0], it.Rows)
		if it.Cols.Len() <= m {
			p.colBuf = it.Cols.appendIndices(p.colBuf[:0])
			p.cols = p.colBuf
		} else {
			p.cols = it.Cols.Indices()
		}
	} else {
		p.runs, p.ascending = buildRuns(p.runs[:0], it.Sel.Rows)
		p.cols = it.Sel.Cols
	}
	p.nrows = 0
	if len(p.runs) > 0 {
		p.nrows = p.runs[len(p.runs)-1].hi
	}
	p.fac, p.overlay, p.sigma, p.indexed = factored(s), false, nil, false
	if p.fac != nil {
		p.overlay = p.fac.Method() == store.MethodSVDD
		p.sigma = p.fac.Base().Sigma()
	}
}

// unref drops the plan's references to the store and the selection, so a
// pooled state pins neither; the buffers stay for the next evaluation.
func (p *plan) unref() {
	p.cols, p.fac, p.sigma = nil, nil, nil
}

// factored returns s as the factored store the projected and factored
// paths read, or nil for a method without factors (DCT, wavelet, VQ).
func factored(s store.Store) *core.Store {
	c, _ := s.(*core.Store)
	return c
}

// answered reports whether the extremum index answered the plan's min or
// max with no U row read: it decided the aggregate and left no column open.
func (p *plan) answered() bool { return p.indexed && len(p.cols) == 0 }

// buildPanel fills the plan's projection panel.
func (p *plan) buildPanel() {
	v, k := p.fac.Base().V(), len(p.sigma)
	p.panel = ensureFloats(p.panel, len(p.cols)*k)
	for pos, j := range p.cols {
		copy(p.panel[pos*k:(pos+1)*k], v.Row(j))
	}
}

// buildRuns appends to runs the maximal consecutive ascending runs of rows
// as position intervals, and reports whether the rows are strictly
// ascending throughout. Singleton "runs" are kept, so the runs tile every
// position: the scan threshold applies after clipping to a worker chunk
// (pieceIter).
func buildRuns(runs []scanRun, rows []int) (_ []scanRun, ascending bool) {
	ascending = true
	for p := 0; p < len(rows); {
		if p > 0 && rows[p] <= rows[p-1] {
			ascending = false
		}
		q := p + 1
		for q < len(rows) && rows[q] == rows[q-1]+1 {
			q++
		}
		runs = append(runs, scanRun{lo: p, hi: q, first: rows[p]})
		p = q
	}
	return runs, ascending
}

// specRuns is buildRuns over a spec's runs, never its rows: empty runs
// dropped and abutting ones merged, so the schedule is the one buildRuns
// builds from the spec's Indices, in O(runs).
func specRuns(runs []scanRun, sp IndexSpec) (_ []scanRun, ascending bool) {
	runs = slices.Grow(runs, len(sp.runs))
	ascending = true
	pos := 0
	for _, r := range sp.runs {
		if r.n == 0 {
			continue
		}
		if k := len(runs) - 1; k >= 0 {
			switch end := runs[k].end(); {
			case r.lo == end:
				runs[k].hi += r.n
				pos += r.n
				continue
			case r.lo < end:
				ascending = false
			}
		}
		runs = append(runs, scanRun{lo: pos, hi: pos + r.n, first: r.lo})
		pos += r.n
	}
	return runs, ascending
}

// pieceIter walks the U-row reads that selection positions [lo, hi) — one
// worker chunk — decompose into: each maximal run, clipped to the chunk,
// is one sequential scan when at least minScanRun rows long and one point
// read per row otherwise. It owns the three decisions every consumer of
// the schedule must agree on (where the chunk enters the schedule, how
// runs clip to it, what is worth a scan): readURows executes its pieces
// and ExplainQuery replays them, so the cost model cannot drift from the
// engine. A value type driven by next — nothing here allocates.
type pieceIter struct {
	pl      *plan
	ri      int // run holding position pos
	pos, hi int // positions still to cover

	// The current piece: U rows [start, end), scanned or point-read.
	start, end int
	scan       bool
}

// pieces starts the walk of positions [lo, hi) at the first run whose hi
// exceeds lo. A hand-rolled binary search: sort.Search's closure would
// heap-allocate once per worker chunk on the zero-alloc hot path.
func (p *plan) pieces(lo, hi int) pieceIter {
	i, j := 0, len(p.runs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p.runs[h].hi > lo {
			j = h
		} else {
			i = h + 1
		}
	}
	return pieceIter{pl: p, ri: i, pos: lo, hi: hi}
}

// next advances to the next piece, reporting false when [lo, hi) is
// covered. Runs tile the positions, so the fragment at pos is the rest of
// its run up to hi; a fragment too short to scan stays too short as its
// rows are handed out one by one.
func (it *pieceIter) next() bool {
	if it.pos >= it.hi {
		return false
	}
	if it.pos == it.pl.runs[it.ri].hi {
		it.ri++
	}
	run := it.pl.runs[it.ri]
	n := min(run.hi, it.hi) - it.pos
	if it.scan = n >= minScanRun; !it.scan {
		n = 1
	}
	it.start = run.first + it.pos - run.lo
	it.end = it.start + n
	it.pos += n
	return true
}

// zeroFlagged reports whether the current piece is an isolated §6.2
// zero-flagged row, answered from the in-memory flag with no U access.
// Zero rows inside a scan are scanned like any other.
func (it *pieceIter) zeroFlagged() bool {
	return !it.scan && it.pl.fac.IsZeroRow(it.start)
}

// segIter splits one piece, U rows [start, end), into what the engine
// reads of it. A factored plan takes every indexed block of the store's
// moment index (svd.Store.RowMoments) that lies wholly inside the piece's
// run from the index instead of reading its rows: the piece holding the
// block's first row stages the block's entry (a block segment, staged
// set), and the block's other rows — in that piece or in the next chunk's
// — are skipped. Which piece owns a block is a matter of positions alone,
// so every worker count stages every taken block exactly once, and a
// multiset that lists a range twice takes its blocks twice. The rows
// outside taken blocks — a run's ragged ends, and any block the index left
// out — are read segments, as is every piece of any other plan. A value
// type driven by next; nothing here allocates.
type segIter struct {
	idx      *exact.Blocks // nil: the piece is read whole
	rs, re   int           // the piece's run: U rows [rs, re)
	at, stop int           // rows [at, stop) of the piece still to cover

	// The current segment: rows [start, end); staged, a block it stages
	// from entry; or skip, rows of a block another segment stages.
	start, end int
	staged     bool
	entry      exact.Entry
	skip       bool
}

// segments starts the split of the iterator's current piece.
func (p *plan) segments(it *pieceIter, factored bool) segIter {
	sg := segIter{at: it.start, stop: it.end}
	if factored {
		run := p.runs[it.ri]
		sg.idx, sg.rs, sg.re = p.fac.Base().RowMoments(), run.first, run.end()
	}
	return sg
}

// taken returns the entry of the block holding row i if the factored path
// takes that block whole: indexed, and wholly inside the piece's run.
func (sg *segIter) taken(i int) (exact.Entry, bool) {
	b0 := i - i%exact.BlockRows
	if sg.idx == nil || b0 < sg.rs || b0+exact.BlockRows > sg.re {
		return exact.Entry{}, false
	}
	return sg.idx.Block(b0 / exact.BlockRows)
}

// next advances to the next segment, reporting false when the piece is
// covered.
func (sg *segIter) next() bool {
	if sg.at >= sg.stop {
		return false
	}
	sg.start = sg.at
	sg.staged, sg.skip = false, false
	if sg.idx == nil {
		sg.at, sg.end = sg.stop, sg.stop
		return true
	}
	b0 := sg.at - sg.at%exact.BlockRows
	sg.at = min(b0+exact.BlockRows, sg.stop)
	var ok bool
	if sg.entry, ok = sg.taken(sg.start); ok {
		sg.staged, sg.skip = sg.start == b0, sg.start != b0
	} else {
		for sg.at < sg.stop {
			if _, ok := sg.taken(sg.at); ok {
				break
			}
			sg.at = min(sg.at+exact.BlockRows, sg.stop)
		}
	}
	sg.end = sg.at
	return true
}

// reads replays the U reads of an evaluation of agg over the plan's
// selection in chunks of chunk positions, without reading — none when the
// extremum index answered a min or max alone (lookup): fn gets each
// run of rows [start, end) readURows reads — the read segments of every
// piece, zero set for an isolated zero-flagged row, which is answered from
// its flag. The delta corrections read no U row. EXPLAIN charges what fn
// gets, so it cannot drift from the engine.
func (p *plan) reads(agg Aggregate, chunk int, fn func(start, end int, zero bool)) {
	if p.answered() {
		return
	}
	factored := agg == Sum || agg == Avg || agg == StdDev
	for lo := 0; lo < p.nrows; lo += chunk {
		for it := p.pieces(lo, min(lo+chunk, p.nrows)); it.next(); {
			for sg := p.segments(&it, factored); sg.next(); {
				if !sg.staged && !sg.skip {
					fn(sg.start, sg.end, it.zeroFlagged())
				}
			}
		}
	}
}
