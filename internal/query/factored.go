package query

import (
	"fmt"
	"math"

	"seqstore/internal/exact"
	"seqstore/internal/linalg"
)

// This file holds the factored aggregate paths. With x̂ = U·Σ·Vᵀ, the first
// moment over a selection R×C factors as
//
//	Σ_{i∈R,j∈C} x̂[i][j] = Σ_m σ_m·(Σ_{i∈R} u[i][m])·(Σ_{j∈C} v[j][m])
//
// (O(k·(|R|+|C|))), and the second moment through the per-selection Gram
// matrices Gu[m][m′] = Σ_{i∈R} u[i][m]·u[i][m′], Gv likewise over C:
//
//	Σ_{i∈R,j∈C} x̂[i][j]² = Σ_{m,m′} σ_m·σ_m′·Gu[m][m′]·Gv[m][m′]
//
// (O(k²·(|R|+|C|))), which gives StdDev without touching any of the
// |R|·|C| cells; its accuracy is limited by cancellation in Σx²−(Σx)²/n,
// and property tests pin it within 1e-6 relative of the naive evaluation.
// SVDD stores add corrections from the outlier deltas of the selected rows,
// visited through the store's row index by the plan's delta walk
// (deltas.go).
//
// The moments live in the pooled evalState (engine.go) and the walk reads
// the plan's digest, so the steady-state factored path allocates nothing,
// SVDD or plain.

// finalizeFactoredSum rounds the state's exact row/column moments and
// contracts them with σ.
func (st *evalState) finalizeFactoredSum() float64 {
	var total float64
	for m, sig := range st.sigma {
		total += sig * st.rowM.acc[m].Value() * st.colM.acc[m].Value()
	}
	if st.hasCorr {
		total += st.corr.sum.Value()
	}
	return total
}

// finalizeFactoredStdDev computes the standard deviation from the state's
// exact factored first/second moments.
func (st *evalState) finalizeFactoredStdDev() float64 {
	k, sigma, um, vm := st.rowM.k, st.sigma, &st.rowM, &st.colM
	var sum, sumSq float64
	for a := 0; a < k; a++ {
		sum += sigma[a] * um.acc[a].Value() * vm.acc[a].Value()
		sumSq += sigma[a] * sigma[a] * um.g[a*k+a].Value() * vm.g[a*k+a].Value()
		for b := a + 1; b < k; b++ {
			// Off-diagonal terms appear twice ((a,b) and (b,a)); both Gram
			// matrices are symmetric, so fold the lower triangle in here.
			sumSq += 2 * sigma[a] * sigma[b] * um.g[a*k+b].Value() * vm.g[a*k+b].Value()
		}
	}
	if st.hasCorr {
		sum += st.corr.sum.Value()
		sumSq += st.corr.sumSq.Value()
	}
	nc := float64(st.numCells)
	mean := sum / nc
	variance := sumSq/nc - mean*mean
	// Cancellation floor: the subtraction cannot resolve a variance below
	// ~machine-ε of the magnitudes being subtracted (the factored Σx̂² sums
	// k² products, so the residual of a constant selection is not exactly
	// zero the way the naive per-cell accumulator's is). Anything under the
	// floor is noise — report 0, as a singleton selection must.
	if floor := 1e-12 * (sumSq/nc + mean*mean); variance < floor {
		variance = 0
	}
	return math.Sqrt(variance)
}

// uMoments accumulates the row-side (or column-side) factors: acc[m] is
// the exact component sum over the index set and, when wantSq, g holds the
// k×k Gram matrix of the set's factor rows (upper triangle filled; the
// matrix is symmetric; empty otherwise). The exact superaccumulators make
// the moments independent of accumulation order, so per-worker (and
// per-shard) partials merge to the identical bit pattern as a serial pass.
//
// add goes through an exact.Stage: a row's terms land in error-free
// float64 bins that reach acc and g once per 1 024 rows and at flush. Only
// the workers' moments and the column pass stage rows; merge flushes the
// moments it folds in and evaluate flushes the column pass, so the
// moments export and value read are always fully flushed — the very
// registers a per-term Sum.Add fold builds.
type uMoments struct {
	k      int
	wantSq bool
	acc    []exact.Sum
	g      []exact.Sum // k×k row-major, upper triangle (wantSq)
	stage  exact.Stage
}

// reset prepares a (possibly pooled) accumulator for a fresh evaluation,
// reusing its backing arrays when the capacity allows.
func (um *uMoments) reset(k int, wantSq bool) {
	um.k, um.wantSq = k, wantSq
	um.acc = ensureSums(um.acc, k)
	for i := range um.acc {
		um.acc[i].Reset()
	}
	um.g = um.g[:0]
	if wantSq {
		um.g = ensureSums(um.g, k*k)
		for i := range um.g {
			um.g[i].Reset()
		}
	}
	um.stage.Reset(len(um.acc) + len(um.g))
}

// set makes um a copy of the given moments (a Partial's), reusing its
// backing arrays like reset.
func (um *uMoments) set(k int, wantSq bool, acc, g []exact.Sum) {
	um.k, um.wantSq = k, wantSq
	um.acc = append(um.acc[:0], acc...)
	um.g = append(um.g[:0], g...)
}

func (um *uMoments) add(row []float64) {
	um.stage.AddMoments(um.acc, um.g, row)
}

// flush moves the staged rows into acc and g.
func (um *uMoments) flush() {
	um.stage.Flush(um.acc, um.g)
}

// merge flushes o and folds it into um.
func (um *uMoments) merge(o *uMoments) {
	o.flush()
	for i := range um.acc {
		um.acc[i].Merge(&o.acc[i])
	}
	if um.wantSq {
		for i := range um.g {
			um.g[i].Merge(&o.g[i])
		}
	}
}

// ensureSums returns s resized to n, reusing its backing array when the
// capacity allows. Contents are unspecified; callers reset.
func ensureSums(s []exact.Sum, n int) []exact.Sum {
	if cap(s) < n {
		return make([]exact.Sum, n)
	}
	return s[:n]
}

// corrections are the SVDD delta contributions to the factored moments,
// held exactly so shard partials merge order-independently.
type corrections struct {
	sum, sumSq exact.Sum
}

// deltaCorrections folds the outlier deltas lying inside the selection
// into st.corr, along the plan's delta walk: only the buckets of the
// distinct selected rows are looked at (one row-index lookup each — the
// counter pinned by tests). For the second moment, a delta δ on a cell
// with SVD baseline b shifts that cell's square by (b+δ)²−b² = 2bδ+δ², so
// only delta cells need their baseline reconstructed: one U read per row
// the walk stops at, through the engine's uRows (uncharged when
// EvaluateBatch already paid for it).
//
// Multiset weighting: a cell selected r·c times (row listed r times,
// column c times) contributes r·c copies of its correction.
func (st *evalState) deltaCorrections(wantSq bool) error {
	pl, led, c := st.pl, st.env.led, &st.corr
	sigma, v := pl.sigma, pl.fac.Base().V()
	// The workers are done; the first one's U-row buffers are free.
	w0 := st.active[0]
	urow := w0.urow
	w := pl.deltaWalk()
	for w.next() {
		haveU := false
		for x := w.first; x < len(w.cols); x++ {
			col, delta := w.cols[x], w.vals[x]
			cj := w.dg.colMult[col]
			if cj == 0 {
				continue
			}
			wt := float64(w.mult * int(cj))
			c.sum.Add(wt * delta)
			if !wantSq {
				continue
			}
			if !haveU {
				u, err := st.uRows(w.row, w.row+1, &w0.scratch)
				if err != nil {
					return fmt.Errorf("query: delta row %d: %w", w.row, err)
				}
				led.AddRowsRead(1)
				for m := range urow {
					urow[m] = u[m] * sigma[m]
				}
				haveU = true
			}
			b := linalg.Dot(urow, v.Row(int(col)))
			c.sumSq.Add(wt * (2*b*delta + delta*delta))
		}
	}
	led.AddDeltasProbed(w.probed)
	return nil
}
