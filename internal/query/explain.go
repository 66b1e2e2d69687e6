package query

import "seqstore/internal/store"

// Plan kind names reported by ExplainQuery; these are the wire values of
// the /v1/aggregate explain block's "plan" field.
const (
	PlanCount     = "count"     // data-free: answered from the selection shape
	PlanFactored  = "factored"  // factored Sum/Avg/StdDev moments (factored.go)
	PlanProjected = "projected" // per-row projected engine (engine.go)
	PlanGeneric   = "generic"   // full-row reconstruction fallback
)

// Explain describes the plan evaluate would choose for (s, agg, sel) and
// predicts its ledger charges. It is derived entirely from in-memory
// metadata — the run schedule, the SVDD zero-row flags, the row index of
// the deltas and their column-major view (which a factored explanation
// builds if no aggregate has yet), and for a min or max the extremum index
// (likewise) — so producing an explanation performs
// no request's store reads and adds zero disk accesses (the §17 invariant
// pinned by TestExplainNoExtraDiskAccesses).
//
// The estimates model a query alone, and a batch is charged its items'
// lone ledgers, so a batch's ledger is the sum of its items' estimates.
// On a cold store they equal the executed ledger exactly, including the
// chunk-clipping of scan runs at the requested worker count, because they
// are a replay of the very pieces the engine reads (plan.pieces); warm
// caches only lower the actual numbers.
type Explain struct {
	Plan string // PlanCount, PlanFactored, PlanProjected or PlanGeneric
	// Workers is the normalized requested worker count. It sets the
	// chunking below; a selection with few chunks or little work folds them
	// on fewer goroutines (evalWorkers), with the same charges.
	Workers int
	Cells   int64 // |R|·|C| cells in the selection

	// Row-run schedule, after clipping runs to worker chunks exactly as the
	// engine does: ChunkRows is the adaptive chunk size, Chunks the number
	// of dispatches, Runs the unclipped schedule length. CoalescedScans
	// count the clipped fragments long enough (≥ minScanRun) for a
	// sequential U scan, covering ScanRows positions; PointRows take a
	// random read each, of which ZeroRows are answered from the SVDD
	// zero-row flag without touching disk.
	ChunkRows      int
	Chunks         int
	Runs           int
	CoalescedScans int
	ScanRows       int
	PointRows      int
	ZeroRows       int

	// Predicted ledger charges for the U-row stage plus, where the plan
	// applies them, the SVDD delta corrections.
	EstRowsRead     int64
	EstDiskAccesses int64
	EstPagesTouched int64
	EstDeltasProbed int64
}

// ExplainQuery explains the evaluation of (agg, sel) against s without
// executing it. The dispatch decision mirrors evaluate exactly — count,
// factored, projected, generic in that order — and the plan is built the
// way evaluate builds it, in a pooled state, so explaining a query charges
// no ledger.
func ExplainQuery(s store.Store, agg Aggregate, sel Selection, opts Options) (*Explain, error) {
	st := getState()
	defer st.release()
	return st.explain(s, agg, sel, opts.env().workers)
}

// explain is ExplainQuery on a state the caller holds.
func (st *evalState) explain(s store.Store, agg Aggregate, sel Selection, workers int) (*Explain, error) {
	n, m := s.Dims()
	if err := sel.Validate(n, m); err != nil {
		return nil, err
	}
	ex := &Explain{
		Workers: workers,
		Cells:   int64(sel.NumCells()),
	}
	if agg == Count {
		ex.Plan = PlanCount
		return ex, nil
	}
	p := &st.pl
	p.reset(s, sel)
	switch {
	case p.fac == nil:
		ex.Plan = PlanGeneric
	case agg == Sum || agg == Avg || agg == StdDev:
		ex.Plan = PlanFactored
	default:
		ex.Plan = PlanProjected
	}
	ex.Runs = len(p.runs)

	nrows := len(p.rows)
	ex.ChunkRows = evalChunkSize(nrows, ex.Workers)
	ex.Chunks = (nrows + ex.ChunkRows - 1) / ex.ChunkRows

	if ex.Plan == PlanGeneric {
		// genericRows reconstructs every selected position in full: one
		// access and one page per row, no run coalescing.
		ex.PointRows = nrows
		ex.EstRowsRead = int64(nrows)
		ex.EstDiskAccesses = int64(nrows)
		ex.EstPagesTouched = int64(nrows)
		return ex, nil
	}

	if ex.Plan == PlanProjected {
		// A min or max the extremum index answers alone reads nothing and
		// dispatches no chunk; one it answers in part projects the open
		// columns over every selected row, which reads what projecting them
		// all would.
		if err := p.lookup(agg == Max); err != nil {
			return nil, err
		}
		if p.answered() {
			ex.Chunks = 0
			return ex, nil
		}
	}
	ex.replay(p, agg)
	if ex.Plan == PlanFactored && p.overlay {
		// The corrections read no U row: running them is their replay,
		// the walk's choice included.
		probed, err := st.deltaCorrections(agg == StdDev)
		if err != nil {
			return nil, err
		}
		ex.EstDeltasProbed += probed
	}
	return ex, nil
}

// replay predicts what readURows charges on a cold store without reading
// anything. The schedule counts the pieces readURows walks, chunk by
// chunk; the projected plan on an SVDD store opens the slab of the row
// index of every piece but an isolated zero-flagged row. The charges are
// plan.reads' runs of rows: each a row read per row, and, but for a
// zero-flagged row, one access per row plus the pages spanned.
func (ex *Explain) replay(pl *plan, agg Aggregate) {
	for lo := 0; lo < len(pl.rows); lo += ex.ChunkRows {
		for it := pl.pieces(lo, min(lo+ex.ChunkRows, len(pl.rows))); it.next(); {
			if it.scan {
				ex.CoalescedScans++
				ex.ScanRows += it.end - it.start
			} else {
				ex.PointRows++
			}
			if it.zeroFlagged() {
				ex.ZeroRows++
			} else if ex.Plan == PlanProjected && pl.overlay {
				ex.EstDeltasProbed += int64(pl.fac.DeltaSlab(it.start, it.end).Len())
			}
		}
	}
	base := pl.fac.Base()
	pl.reads(agg, ex.ChunkRows, func(start, end int, zero bool) {
		ex.EstRowsRead += int64(end - start)
		if !zero {
			ex.EstDiskAccesses += int64(end - start)
			ex.EstPagesTouched += int64(base.UPageSpan(start, end))
		}
	})
}
