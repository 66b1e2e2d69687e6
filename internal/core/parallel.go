// Worker-sharded SVDD pass 2. Every cell's reconstruction error depends on
// its own row alone, so the candidate scan shards the same way as the SVD
// passes (see internal/svd/parallel.go): fixed chunks assigned to workers
// round-robin, per-worker accumulators, reduction pairwise in fixed worker
// order. Per-cell errors are bit-identical for every worker count, so the
// merged top-γ queues hold the same outlier set and the same k_opt is
// chosen; only the SSE totals vary with the reduction order (~1e-12
// relative).
package core

import (
	"sync"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/pqueue"
	"seqstore/internal/svd"
)

// pass2State holds one worker's pass-2 accumulators: per-cutoff total
// squared errors and one bounded top-γ queue per candidate cutoff. Each
// per-worker queue keeps the full capacity γ_k of its candidate, which is
// what makes the post-scan merge exact (pqueue.TopK.Merge).
type pass2State struct {
	kmax   int
	f      *svd.Factors
	proj   []float64      // scratch: p_m = σ_m·u[i][m] for the current row
	sse    []float64      // sse[k] for k = 1..kmax
	queues []*pqueue.TopK // queues[k] for k = 1..kmax; nil = not a candidate
	// staged[k] holds cells queue k admitted but has not been offered yet.
	// A scan feeds ~30 heaps of up to γ₁ items at once, several MB that
	// no cache level close to the core holds; offering a candidate's cells
	// stageLen at a time, in scan order, keeps one heap hot while it is
	// sifted (−20 % pass-2 time on 2048×366) and retains the same items.
	staged [][]pqueue.Item
	// u receives the N×kmax U rows during the scan (the fused emission
	// that replaces pass 3). It is shared across workers — each row is
	// written by exactly one worker, so no locking is needed.
	u *linalg.Matrix
}

const stageLen = 1024

func newPass2State(f *svd.Factors, kmax int, candidates []int, gamma func(int) int, u *linalg.Matrix) *pass2State {
	queues := make([]*pqueue.TopK, kmax+1)
	for _, k := range candidates {
		queues[k] = pqueue.NewTopK(gamma(k))
	}
	return &pass2State{
		kmax:   kmax,
		f:      f,
		proj:   make([]float64, kmax),
		sse:    make([]float64, kmax+1),
		queues: queues,
		staged: make([][]pqueue.Item, kmax+1),
		u:      u,
	}
}

// row scores one data row against every candidate cutoff, reporting whether
// the row is entirely zero (such rows reconstruct exactly under any cutoff
// and contribute nothing to the queues). The queues are complete only after
// flush.
func (st *pass2State) row(i int, row []float64) bool {
	// Projections p_m = Σ_l x[l]·v[l][m]; note σ_m·u[i][m] = p_m, so
	// the rank-k reconstruction of cell j is Σ_{m<k} p_m·v[j][m].
	proj, kmax := st.proj, st.kmax
	for mm := range proj {
		proj[mm] = 0
	}
	allZero := true
	for l, xv := range row {
		if xv == 0 {
			continue
		}
		allZero = false
		linalg.Axpy(xv, st.f.V.Row(l)[:kmax], proj)
	}
	if allZero {
		return true // the U buffer row stays zero, like pass 3's output
	}
	// u[i][m] = p_m/σ_m — element for element the same operations pass 3
	// (svd's projectRow) performs, so the emitted rows are bit-identical to
	// the three-pass layout.
	urow := st.u.Row(i)
	for m := 0; m < kmax; m++ {
		urow[m] = proj[m] / st.f.Sigma[m]
	}
	// Indexed by k−1, like proj.
	sse, queues, staged := st.sse[1:kmax+1], st.queues[1:kmax+1], st.staged[1:kmax+1]
	for j, xv := range row {
		vrow := st.f.V.Row(j)[:kmax]
		partial := 0.0
		for k, p := range proj {
			partial += p * vrow[k]
			e := xv - partial
			sse[k] += e * e
			if q := queues[k]; q != nil && q.Admits(e) {
				staged[k] = append(staged[k], pqueue.Item{Row: i, Col: j, Delta: e})
				if len(staged[k]) == stageLen {
					st.flushQueue(k + 1)
				}
			}
		}
	}
	return false
}

// flushQueue offers queue k its staged cells, in the order they were scored.
func (st *pass2State) flushQueue(k int) {
	for _, it := range st.staged[k] {
		st.queues[k].Offer(it)
	}
	st.staged[k] = st.staged[k][:0]
}

// flush empties every stage; a scan calls it once after its last row.
func (st *pass2State) flush() {
	for k := range st.staged {
		st.flushQueue(k)
	}
}

// merge folds other into st: SSE totals are added and each candidate queue
// absorbs the other worker's retained items.
func (st *pass2State) merge(other *pass2State) {
	for k := range st.sse {
		st.sse[k] += other.sse[k]
	}
	for k, q := range st.queues {
		if q != nil {
			q.Merge(other.queues[k])
		}
	}
}

// runPass2 executes the SVDD candidate scan, sharded across opts.Workers
// when the source supports range scans. It returns the combined state and
// the all-zero row ids in ascending order (empty unless opts.FlagZeroRows).
// ubuf (N×kmax) receives every U row during the same scan — the fused
// emission.
func runPass2(src matio.RowSource, f *svd.Factors, opts Options, kmax int,
	candidates []int, gamma func(int) int, ubuf *linalg.Matrix) (*pass2State, []int32, error) {

	workers := matio.NumWorkers(opts.Workers)
	rs, ok := src.(matio.RangeScanner)
	n, _ := src.Dims()
	chunks := matio.Chunks(n, 0)
	if workers == 1 || !ok || len(chunks) < 2 {
		st := newPass2State(f, kmax, candidates, gamma, ubuf)
		var zeroRows []int32
		err := src.ScanRows(func(i int, row []float64) error {
			if st.row(i, row) && opts.FlagZeroRows {
				zeroRows = append(zeroRows, int32(i))
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		st.flush()
		return st, zeroRows, nil
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}
	matio.StartPass(src)
	states := make([]*pass2State, workers)
	chunkZeros := make([][]int32, len(chunks))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := newPass2State(f, kmax, candidates, gamma, ubuf)
			states[w] = st
			for ci := w; ci < len(chunks); ci += workers {
				r := chunks[ci]
				var zr []int32
				err := rs.ScanRowsRange(r.Start, r.End, func(i int, row []float64) error {
					if st.row(i, row) && opts.FlagZeroRows {
						zr = append(zr, int32(i))
					}
					return nil
				})
				if err != nil {
					errs[w] = err
					return
				}
				chunkZeros[ci] = zr
			}
			st.flush()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	// Reduce pairwise in fixed worker order so the result is deterministic
	// for a given worker count.
	for stride := 1; stride < len(states); stride *= 2 {
		for i := 0; i+stride < len(states); i += 2 * stride {
			states[i].merge(states[i+stride])
		}
	}
	// Chunks partition [0, N) in order, so concatenating per-chunk zero-row
	// lists in chunk order yields ascending row ids — same as the serial scan.
	var zeroRows []int32
	for _, zr := range chunkZeros {
		zeroRows = append(zeroRows, zr...)
	}
	return states[0], zeroRows, nil
}
