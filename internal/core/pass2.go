// SVDD pass 2: the candidate scan. It is one serial src.ScanRows by
// measurement, not by omission — a worker that sees 1/W of the rows still
// needs a full-capacity top-γ_k buffer per candidate, so its admission
// thresholds rise W× slower and buffer work and memory grow with W
// (DESIGN §8). The factor pass before it is the one Options.Workers shards.
//
// A row is scored cutoff-outer: partial[j] holds its rank-k reconstruction
// and one sweep over a contiguous row of Vᵀ advances it to rank k+1, scoring
// the row against that cutoff if it is a candidate. Per cell and per cutoff
// the floating-point operations, and the (i, j) order in which each SSE_k and
// top-γ_k receives them, are the cell-outer loop's: the same bits come out.
package core

import (
	"fmt"
	"math"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/pqueue"
	"seqstore/internal/svd"
)

// pass2State holds the pass-2 accumulators: per-cutoff total squared errors
// and one bounded top-γ collection per candidate cutoff.
type pass2State struct {
	kmax    int
	f       *svd.Factors
	vt      [][]float64    // the kmax first rows of Vᵀ, each contiguous: vt[k][j] = v[j][k]
	proj    []float64      // scratch: p_m = σ_m·u[i][m] for the current row
	partial []float64      // scratch: the current row's reconstruction at the cutoff being swept
	sse     []float64      // sse[k] for the candidates k in 1..kmax
	queues  []*pqueue.TopK // queues[k] for k = 1..kmax; nil = not a candidate
	// u receives the N×kmax U rows during the scan (the fused emission
	// that replaces the paper's pass 3).
	u *linalg.Matrix
}

func newPass2State(f *svd.Factors, kmax int, candidates []int, gamma func(int) int, u *linalg.Matrix) *pass2State {
	queues := make([]*pqueue.TopK, kmax+1)
	for _, k := range candidates {
		queues[k] = pqueue.NewTopK(gamma(k))
	}
	vt := make([][]float64, kmax)
	for k := range vt {
		vt[k] = f.V.Col(k)
	}
	return &pass2State{
		kmax:    kmax,
		f:       f,
		vt:      vt,
		proj:    make([]float64, kmax),
		partial: make([]float64, f.Cols),
		sse:     make([]float64, kmax+1),
		queues:  queues,
		u:       u,
	}
}

// row scores one data row against every candidate cutoff, reporting whether
// the row is entirely zero (such rows reconstruct exactly under any cutoff
// and contribute nothing to the queues). A NaN or ±Inf cell is an error: it
// would poison every SSE and has no rank among the errors.
func (st *pass2State) row(i int, row []float64) (allZero bool, err error) {
	// Projections p_m = Σ_l x[l]·v[l][m]; note σ_m·u[i][m] = p_m, so
	// the rank-k reconstruction of cell j is Σ_{m<k} p_m·v[j][m]. The
	// nonzero cells are added four per pass over proj (linalg.AxpyRows), in
	// l order: the bits of one Axpy per cell.
	proj, kmax := st.proj, st.kmax
	for mm := range proj {
		proj[mm] = 0
	}
	allZero = true
	var alpha [4]float64
	var vrows [4][]float64
	a := 0
	for l, xv := range row {
		if xv == 0 {
			continue
		}
		if math.IsNaN(xv) || math.IsInf(xv, 0) {
			return false, fmt.Errorf("cell (%d, %d) is %v: %w", i, l, xv, linalg.ErrNotFinite)
		}
		allZero = false
		alpha[a], vrows[a] = xv, st.f.V.Row(l)[:kmax]
		if a++; a == len(alpha) {
			linalg.AxpyRows(alpha[:], vrows[:], proj)
			a = 0
		}
	}
	linalg.AxpyRows(alpha[:a], vrows[:a], proj)
	if allZero {
		return true, nil // the U buffer row stays zero, as projecting the row would leave it
	}
	// u[i][m] = p_m/σ_m — element for element the same operations the
	// paper's separate projection scan (svd's projectRow) performs, so the
	// emitted rows are bit-identical to it.
	urow := st.u.Row(i)
	for m := 0; m < kmax; m++ {
		urow[m] = proj[m] / st.f.Sigma[m]
	}
	partial := st.partial[:len(row)]
	for j := range partial {
		partial[j] = 0
	}
	for k, p := range proj {
		vk := st.vt[k][:len(row)]
		q := st.queues[k+1]
		if q == nil {
			linalg.Axpy(p, vk, partial)
			continue
		}
		sse := st.sse[k+1]
		for j, xv := range row {
			r := partial[j] + p*vk[j]
			partial[j] = r
			e := xv - r
			sse += e * e
			q.Offer(pqueue.Item{Row: i, Col: j, Delta: e})
		}
		st.sse[k+1] = sse
	}
	return false, nil
}

// runPass2 executes the SVDD candidate scan. It returns the state and the
// all-zero row ids in ascending order (empty unless opts.FlagZeroRows). ubuf
// (N×kmax) receives every U row during the same scan — the fused emission.
func runPass2(src matio.RowSource, f *svd.Factors, opts Options, kmax int,
	candidates []int, gamma func(int) int, ubuf *linalg.Matrix) (*pass2State, []int32, error) {

	st := newPass2State(f, kmax, candidates, gamma, ubuf)
	var zeroRows []int32
	err := src.ScanRows(func(i int, row []float64) error {
		allZero, err := st.row(i, row)
		if allZero && opts.FlagZeroRows {
			zeroRows = append(zeroRows, int32(i))
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return st, zeroRows, nil
}
