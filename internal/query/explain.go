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
// metadata — the run schedule, the SVDD zero-row flags and the row index
// of the deltas — so producing an explanation performs no store reads and adds zero
// disk accesses (the §17 invariant pinned by TestExplainNoExtraDiskAccesses).
//
// The estimates model a query alone, not a batch's shared union charge.
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
// factored, projected, generic in that order — and the plan is built
// transiently (never inserted into opts.Plans), so explaining a query
// perturbs neither the plan cache nor any ledger.
func ExplainQuery(s store.Store, agg Aggregate, sel Selection, opts Options) (*Explain, error) {
	n, m := s.Dims()
	if err := sel.Validate(n, m); err != nil {
		return nil, err
	}
	ex := &Explain{
		Workers: opts.env().workers,
		Cells:   int64(sel.NumCells()),
	}
	if agg == Count {
		ex.Plan = PlanCount
		return ex, nil
	}
	pl := buildPlanWith(s, sel, 0, false)
	switch {
	case pl.fac == nil:
		ex.Plan = PlanGeneric
	case agg == Sum || agg == Avg || agg == StdDev:
		ex.Plan = PlanFactored
	default:
		ex.Plan = PlanProjected
	}
	ex.Runs = len(pl.runs)

	nrows := len(pl.rows)
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

	ex.replayURows(pl)
	if ex.Plan == PlanFactored && pl.overlay {
		ex.replayDeltaWalk(pl, agg)
	}
	return ex, nil
}

// replayURows walks the pieces readURows would, chunk by chunk, charging
// what a cold store charges for each without reading anything: every
// piece is rows read; all but the flag-answered zero rows are one access
// per row plus the pages spanned. The projected plan also opens the slab
// of the row index of every piece it holds U rows for.
func (ex *Explain) replayURows(pl *plan) {
	for lo := 0; lo < len(pl.rows); lo += ex.ChunkRows {
		for it := pl.pieces(lo, min(lo+ex.ChunkRows, len(pl.rows))); it.next(); {
			n := it.end - it.start
			ex.EstRowsRead += int64(n)
			if it.scan {
				ex.CoalescedScans++
				ex.ScanRows += n
			} else {
				ex.PointRows++
			}
			if it.zeroFlagged() {
				ex.ZeroRows++
				continue
			}
			ex.EstDiskAccesses += int64(n)
			ex.EstPagesTouched += int64(pl.fac.Base().UPageSpan(it.start, it.end))
			if ex.Plan == PlanProjected && pl.overlay {
				ex.EstDeltasProbed += int64(pl.fac.DeltaSlab(it.start, it.end).Len())
			}
		}
	}
}

// replayDeltaWalk predicts the factored plan's SVDD delta charges by
// running the walk deltaCorrections runs: every bucket of the distinct
// selected rows is probed, and StdDev additionally reconstructs the
// baseline of every row the walk stops at — one U read each.
func (ex *Explain) replayDeltaWalk(pl *plan, agg Aggregate) {
	w := pl.deltaWalk()
	for w.next() {
		if agg == StdDev {
			ex.EstRowsRead++
			ex.EstDiskAccesses++
			ex.EstPagesTouched += int64(pl.fac.Base().UPageSpan(w.row, w.row+1))
		}
	}
	ex.EstDeltasProbed += w.probed
}
