package query

import (
	"context"
	"fmt"
	"sync"

	"seqstore/internal/core"
	"seqstore/internal/exact"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/trace"
)

// Options tunes EvaluateOpts.
type Options struct {
	// Workers is the number of goroutines sharding the selected rows:
	// 0 means one per CPU, 1 evaluates serially. Every aggregate is
	// bit-identical across worker counts: Count/Min/Max reduce
	// order-independently and Sum/Avg/StdDev accumulate in exact.Sum
	// superaccumulators, so neither chunking nor scheduling can reach the
	// result (TestWorkerCountInvariance).
	Workers int
	// Ctx, when non-nil, cancels the evaluation: workers check it between
	// row chunks and return ctx.Err() (context.Canceled or
	// DeadlineExceeded) once it fires. A nil Ctx means no cancellation.
	Ctx context.Context
	// Plans is ignored: every evaluation builds its plan in its pooled
	// state. The field remains because the benchmark module's literals
	// still set it.
	//
	// Deprecated: there is no plan cache.
	Plans *PlanCache
}

// evalEnv is the resolved per-evaluation environment: context, normalized
// worker count and the request's cost ledger.
type evalEnv struct {
	ctx     context.Context
	workers int
	led     *trace.Ledger
}

// env resolves the options once per entry point.
func (o Options) env() evalEnv {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return evalEnv{
		ctx:     ctx,
		workers: matio.NumWorkers(o.Workers),
		led:     trace.LedgerFrom(ctx),
	}
}

// Chunking of the selected row positions across workers. The chunk size
// adapts to the selection and worker count — each worker sees about
// chunksPerWorker chunks, so small selections still fan out instead of
// drowning in a single fixed-size chunk, while huge serial scans are not
// chopped into thousands of dispatches. Boundaries are a pure function of
// (selection length, worker count), which is what lets ExplainQuery
// predict the executed ledger exactly.
const (
	minChunkRows    = 16
	maxChunkRows    = 4096
	chunksPerWorker = 4
)

// evalChunkSize returns the sharding granularity for an n-position
// selection requested with the given worker count.
func evalChunkSize(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	c := n / (workers * chunksPerWorker)
	if c < minChunkRows {
		c = minChunkRows
	}
	if c > maxChunkRows {
		c = maxChunkRows
	}
	return c
}

// minWorkerWork is the least sharded work, in multiply-adds, that pays for
// a goroutine of its own. Measured on two cores (EXPERIMENTS.md §PR 22):
// below some 64 Ki multiply-adds per evaluation — about 70 µs of one core
// on the projected path (one 32 Ki share at k = 7, |C| = 60 is ≈ 35 µs,
// EXPERIMENTS.md §PR 30) — the launch, the per-worker resets and the merge
// cost more than a second worker returns, on either path.
const minWorkerWork = 32 << 10

// rowWork is the sharded work one selected row costs, in multiply-adds: k
// per projected cell, k on the factored path. A full-row reconstruction of
// a store without factors is not modelled and never held back.
func (st *evalState) rowWork() int {
	switch k := len(st.pl.sigma); {
	case st.pl.fac == nil:
		return minWorkerWork
	case st.factored:
		return k
	default:
		return k * len(st.sel.Cols)
	}
}

// evalWorkers is how many of the requested workers an n-row selection
// keeps busy: no more than it has chunks, and no more than it has
// minWorkerWork-sized shares of work. Only the goroutine count depends on
// it — chunk boundaries, and with them every ledger charge and EXPLAIN
// estimate, are evalChunkSize's alone.
func evalWorkers(n, chunk, workers, rowWork int) int {
	return max(1, min(workers, (n+chunk-1)/chunk, n*rowWork/minWorkerWork))
}

// minScanRun is the shortest contiguous ascending run of selected rows
// worth a sequential range scan instead of per-row random reads.
const minScanRun = 4

// EvaluateOpts computes the aggregate over the reconstructed cells of s.
//
// Dispatch, in order:
//   - Count needs no data at all.
//   - Sum/Avg/StdDev on SVD/SVDD stores use the factored forms
//     (factored.go), O(k·(|R|+|C|)) or O(k²·(|R|+|C|)) plus the selected
//     rows' delta buckets — with the |R| U-row reads sharded across
//     workers.
//   - Everything else folds cells: selected rows are split into adaptive
//     chunks handed round-robin to workers, contiguous row runs coalesce
//     into sequential U scans, and each row costs O(k·|C|) against a
//     per-query V panel instead of the O(k·M) full reconstruction.
//
// A value is the merge of one partial: this is evaluate + value, where
// EvaluatePartial is evaluate + export and MergePartials is merge + the
// same value.
func EvaluateOpts(s store.Store, agg Aggregate, sel Selection, opts Options) (float64, error) {
	st := getState()
	defer st.release()
	if err := st.evaluate(opts.env(), s, agg, sel); err != nil {
		return 0, err
	}
	return st.value(agg)
}

// evalState is one evaluation's pooled state: its plan, the per-worker
// scratch and the mergeable result the workers reduce into. The result has
// two shapes (the ones a Partial carries): cells — the merged accumulator of the
// projected/generic engine and the data-free Count — and factored — exact
// row and column moments, the SVDD delta corrections and σ. Pooling it,
// and growing every slice by capacity, removes all steady-state
// allocation from the serial path.
type evalState struct {
	evalJob
	pl plan // rebuilt by every evaluate; its buffers persist

	workers []*evalWorker // every worker ever grown; pointer-stable
	active  []*evalWorker // the ones sharding this evaluation

	// The result.
	factored   bool
	numCells   int64
	cells      accum
	rowM, colM uMoments
	corr       corrections
	hasCorr    bool      // store is SVDD: corr is meaningful
	sigma      []float64 // aliases the plan's (or the first merged partial's)

	dsum, dsq exact.Scaled // deltaCorrections' stages for corr's two sums
}

// evalJob is the evaluation in flight. release clears it, the plan's
// references and the workers' slabs, so a pooled state pins neither a
// replaced store, nor its deltas, nor a request's selection or context.
type evalJob struct {
	env     evalEnv
	s       store.Store
	sel     Selection
	dg      *selDigest // projected overlay on SVDD: the columns' positions
	wantMax bool       // projected: the aggregate is Max, not Min
}

var statePool = sync.Pool{New: func() any { return new(evalState) }}

func getState() *evalState { return statePool.Get().(*evalState) }

func (st *evalState) release() {
	st.evalJob, st.sigma = evalJob{}, nil
	st.pl.unref()
	for _, w := range st.active {
		w.slab = core.DeltaSlab{}
	}
	statePool.Put(st)
}

// clear empties the result to the cells-shape merge identity.
func (st *evalState) clear() {
	st.factored, st.numCells = false, 0
	st.cells.reset()
}

// evaluate fills the state with the exact result of (agg, sel) over s:
// validate → ctx → count → plan → factored moments or cells. It is the
// only dispatch; every entry point differs solely in what it does with
// the filled state.
func (st *evalState) evaluate(env evalEnv, s store.Store, agg Aggregate, sel Selection) error {
	n, m := s.Dims()
	if err := sel.Validate(n, m); err != nil {
		return err
	}
	if err := env.ctx.Err(); err != nil {
		return err
	}
	st.clear()
	st.numCells = int64(sel.NumCells())
	if agg == Count {
		st.cells.n = st.numCells
		return nil
	}
	st.evalJob = evalJob{env: env, s: s, sel: sel, wantMax: agg == Max}
	pl := &st.pl
	pl.reset(s, sel)
	st.factored = pl.fac != nil && (agg == Sum || agg == Avg || agg == StdDev)
	if pl.fac != nil && !st.factored {
		if err := pl.lookup(st.wantMax); err != nil {
			return fmt.Errorf("query: extrema: %w", err)
		}
		if pl.answered() {
			st.cells.n = st.numCells
			st.cells.setExtremum(pl.best, st.wantMax)
			return nil
		}
		st.sel.Cols = pl.cols
	}

	k, wantSq := len(pl.sigma), agg == StdDev
	chunk := evalChunkSize(len(sel.Rows), env.workers)
	nw := evalWorkers(len(sel.Rows), chunk, env.workers, st.rowWork())
	for len(st.workers) < nw {
		st.workers = append(st.workers, &evalWorker{st: st})
	}
	st.active = st.workers[:nw]

	if pl.fac != nil && !st.factored {
		pl.buildPanel()
		if pl.overlay {
			st.dg = pl.buildDigest()
		}
	}
	for _, w := range st.active {
		w.acc.reset()
		if pl.indexed {
			w.acc.setExtremum(pl.best, st.wantMax)
		}
		if pl.fac == nil {
			w.row = ensureFloats(w.row, m)
			continue
		}
		w.urow = ensureFloats(w.urow, k)
		if st.factored {
			w.um.reset(k, wantSq)
		} else {
			w.vals = ensureFloats(w.vals, len(st.sel.Cols))
		}
	}
	if err := st.runSharded(chunk); err != nil {
		return err
	}
	if !st.factored {
		for _, w := range st.active {
			st.cells.Merge(&w.acc)
		}
		if pl.indexed {
			// The seeded workers counted the unresolved columns' cells only.
			st.cells.n = st.numCells
		}
		return nil
	}
	st.rowM.reset(k, wantSq)
	for _, w := range st.active {
		st.rowM.merge(&w.um)
	}
	// V is pinned in memory, so the column side is a plain serial pass.
	st.colM.reset(k, wantSq)
	v := pl.fac.Base().V()
	for _, j := range pl.cols {
		st.colM.add(v.Row(j))
	}
	st.colM.flush()
	st.sigma, st.hasCorr, st.corr = pl.sigma, pl.overlay, corrections{}
	if st.hasCorr {
		probed, err := st.deltaCorrections(wantSq)
		env.led.AddDeltasProbed(probed)
		return err
	}
	return nil
}

// value rounds the state's exact result to the aggregate's float64 — the
// single finalization behind local evaluation and the distributed gather,
// so a merged result is bit-identical to single-node by construction.
func (st *evalState) value(agg Aggregate) (float64, error) {
	if !st.factored {
		return st.cells.result(agg)
	}
	switch agg {
	case Sum:
		return st.finalizeFactoredSum(), nil
	case Avg:
		return st.finalizeFactoredSum() / float64(st.numCells), nil
	case StdDev:
		return st.finalizeFactoredStdDev(), nil
	}
	return 0, fmt.Errorf("query: aggregate %v cannot carry factored partials", agg)
}

// runSharded hands the selection's chunks round-robin to the active
// workers: worker w always folds chunks w, w+workers, … in order. With one
// worker the loop runs inline on the caller's goroutine — the serial
// reference path; more run the same loop on a goroutine each. It takes no
// callback: a closure over per-evaluation state would be rebuilt (and,
// escaping into the goroutines, heap-allocated) on every call, where a
// method on the pooled state costs nothing.
func (st *evalState) runSharded(chunk int) error {
	if len(st.active) <= 1 {
		return st.runWorker(0, chunk)
	}
	errs := make([]error, len(st.active))
	var wg sync.WaitGroup
	for w := range st.active {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = st.runWorker(w, chunk)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWorker is worker w's chunk loop. Cancellation is checked between
// chunks, so a fired ctx stops the evaluation within one chunk's worth of
// rows and surfaces as ctx.Err().
func (st *evalState) runWorker(w, chunk int) error {
	n := len(st.sel.Rows)
	for lo := w * chunk; lo < n; lo += len(st.active) * chunk {
		if err := st.env.ctx.Err(); err != nil {
			return err
		}
		st.env.led.AddWorkerChunks(1)
		if err := st.chunk(st.active[w], lo, min(lo+chunk, n)); err != nil {
			return err
		}
	}
	return nil
}

// chunk folds selection positions [lo, hi) into worker w.
func (st *evalState) chunk(w *evalWorker, lo, hi int) error {
	if st.pl.fac == nil {
		return st.genericRows(w, lo, hi)
	}
	return st.readURows(w, lo, hi)
}

// readURows is the engine's U-row loop. It walks the plan's pieces of
// positions [lo, hi): one sequential run or one random row each, read
// through uRows and folded row by row into the factored moments or the
// projection. An isolated §6.2 zero-flagged row is served from its flag (a
// row read with no disk access — an all-zero U row adds nothing to the
// factored moments and |C| zero cells to the projected accumulator); zero
// rows inside a run are simply read: skipping mid-run would cost more than
// it saves. The factored moments read a piece by its segments (segIter):
// a block of the store's moment index that lies wholly inside the piece's
// run is staged from the index, with no U read and no charge, and only the
// rows outside such blocks are read. On SVDD stores the projected engine
// overlays each row it holds a U row for with that row's deltas, so a
// piece also opens its slab of the row index. ExplainQuery replays the
// same reads (plan.reads).
func (st *evalState) readURows(w *evalWorker, lo, hi int) error {
	pl, led, k := &st.pl, st.env.led, len(st.pl.sigma)
	for it := pl.pieces(lo, hi); it.next(); {
		for sg := pl.segments(&it, st.factored); sg.next(); {
			if sg.staged {
				w.um.addBlock(&sg.entry)
				continue
			}
			if sg.skip {
				continue
			}
			start, end := sg.start, sg.end
			led.AddRowsRead(int64(end - start))
			if it.zeroFlagged() {
				w.zeroRow()
				continue
			}
			if st.dg != nil {
				w.slab = pl.fac.DeltaSlab(start, end)
				led.AddDeltasProbed(int64(w.slab.Len()))
			}
			u, err := st.uRows(start, end, &w.scratch)
			if err != nil {
				return fmt.Errorf("query: U rows [%d,%d): %w", start, end, err)
			}
			if st.factored {
				for r := 0; r < len(u); r += k {
					w.um.add(u[r : r+k])
				}
				continue
			}
			// u may be resident U itself: project scales its own copy.
			for i := start; i < end; i++ {
				copy(w.urow, u[(i-start)*k:])
				w.project(i)
			}
		}
	}
	return nil
}

// uRows is the one place U rows are read and charged: U rows [start, end)
// through svd.Store.URows, in place when U is resident, charged one disk
// access per row plus the pages spanned.
func (st *evalState) uRows(start, end int, scratch *[]float64) ([]float64, error) {
	base := st.pl.fac.Base()
	st.env.led.AddDiskAccesses(int64(end - start))
	st.env.led.AddPagesTouched(int64(base.UPageSpan(start, end)))
	return base.URows(start, end, scratch, true)
}

// genericRows is the fallback for stores without a U/V factorization:
// reconstruct each selected row in full and pick the selected columns.
func (st *evalState) genericRows(w *evalWorker, lo, hi int) error {
	led := st.env.led
	for _, i := range st.sel.Rows[lo:hi] {
		got, err := st.s.Row(i, w.row)
		if err != nil {
			return fmt.Errorf("query: row %d: %w", i, err)
		}
		led.AddRowsRead(1)
		led.AddDiskAccesses(1)
		led.AddPagesTouched(1)
		for _, j := range st.sel.Cols {
			w.acc.add(got[j])
		}
	}
	return nil
}

// evalWorker is one worker's private scratch and partial result. The
// shared state is read-only while workers run, so one evalState serves
// them all concurrently.
type evalWorker struct {
	st      *evalState
	acc     accum          // cells shape
	um      uMoments       // factored shape
	urow    []float64      // k: U row, scaled by σ in place before projection
	vals    []float64      // |C|: projected cell values of the current row
	row     []float64      // m: full-row buffer for the generic path
	slab    core.DeltaSlab // SVDD: the deltas of the piece being projected
	scratch []float64      // U rows read from disk (URows grows it)
}

// project projects w.urow — U row i — onto the column panel and folds the
// selected cells, with SVDD deltas applied from the piece's slab of the
// row index. On a factorable store this engine serves Min and Max alone
// (Sum/Avg/StdDev factor, Count is data-free), so it folds only the count
// and the one extremum the aggregate reads.
func (w *evalWorker) project(i int) {
	st := w.st
	// Pre-scale by σ so each projected cell is the same dot product the
	// full-row reconstruction computes — values are bit-identical to
	// store.Row, so Min/Max agree exactly with the naive path.
	urow, vals, sigma := w.urow, w.vals, st.pl.sigma
	for m := range urow {
		urow[m] *= sigma[m]
	}
	linalg.DotRows(urow, st.pl.panel, vals)
	if dg := st.dg; dg != nil {
		cols, deltas := w.slab.Row(i)
		for x, col := range cols {
			for _, p := range dg.pos[dg.colStart[col]:dg.colStart[col+1]] {
				vals[p] += deltas[x]
			}
		}
	}
	w.fold(vals)
}

// fold folds one row's cell values into the count and the aggregate's
// extremum.
func (w *evalWorker) fold(vals []float64) {
	if w.st.wantMax {
		w.acc.addMaxAll(vals)
	} else {
		w.acc.addMinAll(vals)
	}
}

// zeroCell is the one value of a §6.2 zero-flagged row.
var zeroCell = []float64{0}

// zeroRow folds a §6.2 zero-flagged row: every selected cell is 0, and
// the all-zero U row leaves the factored moments untouched. Folding 0 into
// an extremum is idempotent, so |C| zero cells are one fold and a count.
func (w *evalWorker) zeroRow() {
	if n := len(w.st.sel.Cols); !w.st.factored && n > 0 {
		w.fold(zeroCell)
		w.acc.n += int64(n - 1)
	}
}

// ensureFloats returns s resized to n, reusing its backing array when the
// capacity allows. Contents are unspecified; callers overwrite.
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
