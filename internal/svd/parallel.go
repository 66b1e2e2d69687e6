// Worker-sharded variants of the two out-of-core passes. Both passes are
// embarrassingly row-parallel: pass 1 accumulates C = XᵀX as a sum of
// per-row outer products, and pass 2 projects each row independently. The
// sharding strategy is shared by both:
//
//   - the row range [0, N) is split into fixed chunks (matio.Chunks) whose
//     boundaries do not depend on the worker count;
//   - chunks are assigned to workers round-robin (worker w takes chunks
//     w, w+W, w+2W, …), so the work each worker does is a deterministic
//     function of (N, W);
//   - per-worker partial results are combined pairwise in fixed worker
//     order, so the reduction order — and therefore the floating-point
//     result — is deterministic for a given worker count. Results across
//     different worker counts agree to reduction-order tolerance
//     (~1e-12·‖C‖); pass 2/3 output is byte-identical for every worker
//     count because each U row depends on its data row alone.
//
// Sources that do not implement matio.RangeScanner fall back to the serial
// path, as does workers == 1.
package svd

import (
	"fmt"
	"log/slog"
	"sync"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
)

// AccumulateCWorkers computes C = XᵀX with the row scan sharded across
// workers (0 ⇒ GOMAXPROCS, 1 ⇒ the exact serial AccumulateC path). Each worker
// accumulates the upper triangle of its own M×M partial sum; partials are
// reduced pairwise in fixed worker order and mirrored once at the end.
func AccumulateCWorkers(src matio.RowSource, workers int) (*linalg.Matrix, error) {
	workers = matio.NumWorkers(workers)
	rows, cols := src.Dims()
	var c *linalg.Matrix
	err := logPass("pass 1: accumulate C", []slog.Attr{
		slog.Int("rows", rows), slog.Int("cols", cols), slog.Int("workers", workers),
	}, func() error {
		var err error
		c, err = accumulateCWorkers(src, workers)
		return err
	})
	return c, err
}

func accumulateCWorkers(src matio.RowSource, workers int) (*linalg.Matrix, error) {
	n, m := src.Dims()
	rs, ok := src.(matio.RangeScanner)
	chunks := matio.Chunks(n, 0)
	if workers == 1 || !ok || len(chunks) < 2 {
		return AccumulateC(src)
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}
	matio.StartPass(src)
	partials := make([]*linalg.Matrix, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := linalg.NewMatrix(m, m)
			partials[w] = c
			for ci := w; ci < len(chunks); ci += workers {
				r := chunks[ci]
				err := rs.ScanRowsRange(r.Start, r.End, func(i int, row []float64) error {
					accumulateRowUpper(c, row)
					return nil
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("svd: pass 1: %w", err)
		}
	}
	c := reduceMatrices(partials)
	mirrorUpper(c)
	return c, nil
}

// reduceMatrices sums the matrices pairwise in fixed slice order:
// (0+1), (2+3), … then recursively, returning the result in ms[0].
func reduceMatrices(ms []*linalg.Matrix) *linalg.Matrix {
	for stride := 1; stride < len(ms); stride *= 2 {
		for i := 0; i+stride < len(ms); i += 2 * stride {
			a, b := ms[i].Data(), ms[i+stride].Data()
			for idx := range a {
				a[idx] += b[idx]
			}
		}
	}
	return ms[0]
}

// ComputeUWorkers is ComputeU with the projection sharded across workers
// (0 ⇒ GOMAXPROCS, 1 ⇒ the serial path). Workers project their own row ranges
// into per-chunk blocks; a sequencer delivers the U rows to sink strictly
// in row order, so a sink that streams into a matio.Writer produces
// byte-identical output for every worker count. In-flight blocks are
// bounded to workers+2 chunks, keeping memory O(workers·chunkRows·k).
func ComputeUWorkers(src matio.RowSource, f *Factors, k, workers int, sink func(i int, urow []float64) error) error {
	workers = matio.NumWorkers(workers)
	rows, _ := src.Dims()
	return logPass("pass 2: project U", []slog.Attr{
		slog.Int("rows", rows), slog.Int("k", f.Clamp(k)), slog.Int("workers", workers),
	}, func() error {
		return computeUWorkers(src, f, k, workers, sink)
	})
}

func computeUWorkers(src matio.RowSource, f *Factors, k, workers int, sink func(i int, urow []float64) error) error {
	rs, ok := src.(matio.RangeScanner)
	n, _ := src.Dims()
	chunks := matio.Chunks(n, 0)
	if workers == 1 || !ok || len(chunks) < 2 {
		return ComputeU(src, f, k, sink)
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}
	k = f.Clamp(k)
	matio.StartPass(src)

	window := workers + 2
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		blocks = make([][]float64, len(chunks))
		done   = make([]bool, len(chunks))
		next   int // next chunk index the sequencer will deliver
		failed bool
		werr   error
	)
	fail := func(err error) {
		mu.Lock()
		if !failed {
			failed = true
			werr = err
		}
		mu.Unlock()
		cond.Broadcast()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := w; ci < len(chunks); ci += workers {
				mu.Lock()
				for ci >= next+window && !failed {
					cond.Wait()
				}
				abort := failed
				mu.Unlock()
				if abort {
					return
				}
				r := chunks[ci]
				block := make([]float64, r.Len()*k)
				err := rs.ScanRowsRange(r.Start, r.End, func(i int, row []float64) error {
					off := (i - r.Start) * k
					projectRow(row, f, k, block[off:off+k])
					return nil
				})
				if err != nil {
					fail(fmt.Errorf("svd: pass 2: %w", err))
					return
				}
				mu.Lock()
				blocks[ci] = block
				done[ci] = true
				mu.Unlock()
				cond.Broadcast()
			}
		}(w)
	}

	for ci := 0; ci < len(chunks); ci++ {
		mu.Lock()
		for !done[ci] && !failed {
			cond.Wait()
		}
		if failed {
			mu.Unlock()
			break
		}
		block := blocks[ci]
		blocks[ci] = nil
		mu.Unlock()
		r := chunks[ci]
		sinkErr := error(nil)
		for i := r.Start; i < r.End; i++ {
			off := (i - r.Start) * k
			if err := sink(i, block[off:off+k]); err != nil {
				sinkErr = err
				break
			}
		}
		if sinkErr != nil {
			fail(fmt.Errorf("svd: pass 2: %w", sinkErr))
			break
		}
		mu.Lock()
		next = ci + 1
		mu.Unlock()
		cond.Broadcast()
	}
	wg.Wait()
	return werr
}

// CompressWorkers builds a plain-SVD store with cutoff k in two sharded
// passes (0 ⇒ GOMAXPROCS, 1 ⇒ the serial Compress path).
func CompressWorkers(src matio.RowSource, k, workers int) (*Store, error) {
	f, err := ComputeFactorsWorkers(src, workers)
	if err != nil {
		return nil, err
	}
	return CompressWithFactorsWorkers(src, f, k, workers)
}

// CompressWithFactorsWorkers runs only pass 2, sharded across workers.
func CompressWithFactorsWorkers(src matio.RowSource, f *Factors, k, workers int) (*Store, error) {
	k = f.Clamp(k)
	n, _ := src.Dims()
	u := linalg.NewMatrix(n, k)
	err := ComputeUWorkers(src, f, k, workers, func(i int, urow []float64) error {
		copy(u.Row(i), urow)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return New(f, k, matio.NewMem(u))
}
