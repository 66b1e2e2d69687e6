// Package robust implements a "robust SVD" — future-work direction (b) of
// the paper: a factorization that minimizes the effect of outliers.
//
// The algorithm is iterative trimming. Extreme cells drag the principal
// components toward themselves (the paper's Appendix A notes a single
// point "tilted the axis in an unfavorable way"); so we alternately fit a
// truncated SVD and winsorize the worst-fitting cells — replacing them in
// a working copy with their own reconstruction — then refit. The final
// components describe the bulk of the data; the outliers that were trimmed
// are exactly the cells SVDD's deltas repair afterwards, which is why
// RobustFactors composes naturally with core.CompressWithFactors.
//
// Unlike the 2-pass streaming factorization, trimming needs to rewrite
// cells across iterations, so this variant holds one working copy of the
// matrix in memory.
package robust

import (
	"errors"
	"fmt"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/pqueue"
	"seqstore/internal/svd"
)

// Options configures the robust factorization.
type Options struct {
	// K is the number of components fitted during trimming iterations.
	// It should be at least the cutoff you intend to compress with.
	// Required: K ≥ 1.
	K int
	// TrimFrac is the fraction of cells winsorized per iteration
	// (default 0.005 — the paper's Figure 8 shows the error mass is
	// concentrated in far fewer cells than that).
	TrimFrac float64
	// Iters is the number of fit-trim rounds (default 3).
	Iters int
}

// ErrBadOptions is returned for out-of-range parameters.
var ErrBadOptions = errors.New("robust: invalid options")

// Factors computes outlier-resistant SVD factors of x. The returned factors
// have the same shape as svd.ComputeFactors' and can be passed to
// svd.CompressWithFactorsWorkers or core.CompressWithFactors (pass 2 then
// runs against the original, untrimmed data).
func Factors(x *linalg.Matrix, opts Options) (*svd.Factors, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("%w: K = %d", ErrBadOptions, opts.K)
	}
	if opts.TrimFrac < 0 || opts.TrimFrac >= 1 {
		return nil, fmt.Errorf("%w: TrimFrac = %v", ErrBadOptions, opts.TrimFrac)
	}
	if opts.TrimFrac == 0 {
		opts.TrimFrac = 0.005
	}
	if opts.Iters <= 0 {
		opts.Iters = 3
	}
	n, m := x.Dims()
	if n == 0 || m == 0 {
		return nil, svd.ErrEmptyMatrix
	}
	work := x.Clone()
	trimBudget := int(opts.TrimFrac * float64(n) * float64(m))

	for it := 0; it < opts.Iters; it++ {
		f, err := svd.ComputeFactors(matio.NewMem(work))
		if err != nil {
			return nil, fmt.Errorf("robust: iteration %d: %w", it, err)
		}
		k := f.Clamp(opts.K)
		if trimBudget == 0 {
			return f, nil
		}
		// Find the trimBudget worst cells of the CURRENT working copy and
		// replace them with their reconstruction, so they stop pulling the
		// axes on the next round.
		q := pqueue.NewTopK(trimBudget)
		buf := make([]float64, m)
		err = svd.ComputeU(matio.NewMem(work), f, k, func(i int, urow []float64) error {
			// Reconstruct row i from urow: x̂[j] = Σ σ_c·u[c]·v[j][c].
			for j := 0; j < m; j++ {
				vrow := f.V.Row(j)
				var xh float64
				for c := 0; c < k; c++ {
					xh += f.Sigma[c] * urow[c] * vrow[c]
				}
				buf[j] = xh
			}
			row := work.Row(i)
			for j := 0; j < m; j++ {
				q.Offer(pqueue.Item{Row: i, Col: j, Delta: row[j] - buf[j]})
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("robust: residual pass %d: %w", it, err)
		}
		for _, item := range q.Items() {
			// Winsorize: actual − delta = the reconstruction.
			cur := work.At(item.Row, item.Col)
			work.Set(item.Row, item.Col, cur-item.Delta)
		}
	}
	f, err := svd.ComputeFactors(matio.NewMem(work))
	if err != nil {
		return nil, fmt.Errorf("robust: final factorization: %w", err)
	}
	return f, nil
}
