// SVDD pass 2: the candidate scan. It is one serial src.ScanRows by
// measurement, not by omission — a worker that sees 1/W of the rows still
// needs a full-capacity γ_k queue per candidate, so its admission thresholds
// rise W× slower and heap work and memory grow with W (DESIGN §8). The
// factor pass before it is the one Options.Workers shards.
package core

import (
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/pqueue"
	"seqstore/internal/svd"
)

// pass2State holds the pass-2 accumulators: per-cutoff total squared errors
// and one bounded top-γ queue per candidate cutoff.
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
	// that replaces the paper's pass 3).
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
		return true // the U buffer row stays zero, as projecting the row would leave it
	}
	// u[i][m] = p_m/σ_m — element for element the same operations the
	// paper's separate projection scan (svd's projectRow) performs, so the
	// emitted rows are bit-identical to it.
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

// runPass2 executes the SVDD candidate scan. It returns the state and the
// all-zero row ids in ascending order (empty unless opts.FlagZeroRows). ubuf
// (N×kmax) receives every U row during the same scan — the fused emission.
func runPass2(src matio.RowSource, f *svd.Factors, opts Options, kmax int,
	candidates []int, gamma func(int) int, ubuf *linalg.Matrix) (*pass2State, []int32, error) {

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
