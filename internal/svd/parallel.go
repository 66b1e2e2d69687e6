// The one row-sharding driver. Every compression pass is "stream the rows
// once, each row independent": pass 1 accumulates C = XᵀX (or a sketch of
// it) as a sum of per-row outer products, and the projection pass maps each
// row to its U row. scanSharded is the only place that decides how such a
// pass is split across workers:
//
//   - the row range [0, N) is split into fixed chunks (matio.Chunks) whose
//     boundaries do not depend on the worker count;
//   - chunks are assigned to workers round-robin (worker w takes chunks
//     w, w+W, w+2W, …), so the work each worker does is a deterministic
//     function of (N, W);
//   - callers combine the per-worker states pairwise in fixed worker order
//     (reducePairwise), so the floating-point result is deterministic for a
//     given worker count. Sums across different worker counts agree to
//     reduction-order tolerance (~1e-12·‖C‖); per-row outputs (U rows) are
//     bit-identical for every worker count because each depends on its data
//     row alone.
//
// SVDD's scoring pass (internal/core) is deliberately not a caller: its
// per-worker top-γ queues make sharding cost more than it saves (DESIGN §8).
package svd

import (
	"sync"
	"sync/atomic"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
)

// scanSharded makes one logical pass over src, calling row for every row
// with the state of the worker that owns it, and returns the states in
// worker order (always at least one). workers follows matio.NumWorkers
// (0 ⇒ GOMAXPROCS) and is clamped to the chunk count. One worker — asked
// for, clamped to, or forced because src is not a matio.RangeScanner — is a
// single src.ScanRows, rows in order. With more, row runs concurrently for
// rows of different workers, each worker's rows in increasing order; a
// failing worker stops the others at their next chunk, and the first error
// in worker order is returned after every goroutine has exited.
func scanSharded[S any](src matio.RowSource, workers int, newState func() S,
	row func(st S, i int, row []float64) error) ([]S, error) {

	n, _ := src.Dims()
	chunks := matio.Chunks(n, 0)
	workers = min(matio.NumWorkers(workers), len(chunks))
	rs, ok := src.(matio.RangeScanner)
	if workers <= 1 || !ok {
		st := newState()
		err := src.ScanRows(func(i int, r []float64) error { return row(st, i, r) })
		return []S{st}, err
	}
	matio.StartPass(src)
	states := make([]S, workers)
	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newState()
			states[w] = st
			visit := func(i int, r []float64) error { return row(st, i, r) }
			for ci := w; ci < len(chunks) && !failed.Load(); ci += workers {
				if err := rs.ScanRowsRange(chunks[ci].Start, chunks[ci].End, visit); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return states, nil
}

// reducePairwise folds the states in fixed slice order — (0+1), (2+3), …
// then recursively — and returns states[0], which holds the total.
func reducePairwise[S any](states []S, add func(dst, src S)) S {
	for stride := 1; stride < len(states); stride *= 2 {
		for i := 0; i+stride < len(states); i += 2 * stride {
			add(states[i], states[i+stride])
		}
	}
	return states[0]
}

// addMatrix adds src into dst element-wise; a nil dst (an accumulator the
// pass did not ask for) is left alone.
func addMatrix(dst, src *linalg.Matrix) {
	if dst == nil {
		return
	}
	linalg.Axpy(1, src.Data(), dst.Data())
}
