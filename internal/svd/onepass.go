// Randomized sketch compressor: the out-of-core pipeline with O(M·(k+p))
// working memory instead of the M×M Gram matrix.
//
// Pass 1 streams the rows of X once, accumulating the sketch
//
//	Y = C·Ω = Σᵢ xᵢᵀ·(xᵢ·Ω),  Ω an M×b deterministic Gaussian test matrix,
//
// b = k + p (p a small oversample), without ever materializing C. From Y
// the factors are recovered either in zero additional passes (single-pass
// Nyström, exploiting that C is PSD) or via q power-iteration passes, each
// costing exactly ONE more streaming pass: pass p computes tᵢ = xᵢ·Q row
// by row and accumulates both C·Q = Σ xᵢᵀtᵢ (the next subspace) and the
// Rayleigh quotient G = QᵀCQ = Σ tᵢᵀtᵢ for free in the same scan. The
// final pass's tᵢ rows double as Z = X·Q, so plain-SVD compression emits
// U = Z·W·Σ⁻¹ without a separate projection pass: 1+q total passes, which
// at the default q=1 matches the paper's two-pass discipline.
//
// Everything is deterministic: Ω is a fixed function of (M, b, seed), the
// per-worker accumulation order is a fixed function of (N, workers), and
// partials reduce pairwise in fixed worker order (scanSharded, the driver
// AccumulateCWorkers shares).
package svd

import (
	"fmt"
	"log/slog"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
)

// Compressor names accepted by the deprecated core.Options.Compressor.
// Every other caller lets the rule in width.go choose.
const (
	// CompressorGram is the paper's pass-1: accumulate the full M×M Gram
	// matrix C = XᵀX and eigendecompose it (linalg.SymEigen).
	CompressorGram = "gram"
	// CompressorRandomized is the sketch path in this file: O(M·(k+p))
	// memory, never building C.
	CompressorRandomized = "randomized"
)

// oversample is the sketch-width margin p added to the requested rank: the
// sketch has b = k + p columns.
const oversample = 8

// sketchSeed seeds Ω. It is distinct from the subspace-iteration
// start-basis seed so the two randomized paths cannot accidentally share
// structure.
const sketchSeed = 0x0c0ffeed00d5eed5

// RandOptions configures the randomized compression path.
type RandOptions struct {
	// Rank is the number of components to recover (required, ≥ 1). It is
	// clamped to M.
	Rank int
	// PowerIters is the number of power-iteration refinement passes, each
	// costing one additional streaming pass over the data. 0 selects the
	// default of 1 (total 2 passes, like the paper's pipeline); −1 requests
	// the single-pass Nyström recovery (1 factor pass, best for SVDD where
	// the scoring scan is fused separately); n > 0 runs n passes.
	PowerIters int
	// Workers shards every streaming pass (0 ⇒ GOMAXPROCS, 1 ⇒ serial).
	Workers int
}

func (o RandOptions) powerIters() int {
	switch {
	case o.PowerIters == 0:
		return 1
	case o.PowerIters < 0:
		return 0
	default:
		return o.PowerIters
	}
}

// sketchWidth returns b = min(Rank+oversample, m), the number of sketch
// columns for an M-wide matrix.
func (o RandOptions) sketchWidth(m int) int {
	return min(min(o.Rank, m)+oversample, m)
}

// ComputeFactorsRandWorkers recovers the top-Rank factors of src with the
// sketch pipeline: 1 streaming pass for the sketch plus one per power
// iteration (so 1 pass total at PowerIters=−1, 2 at the default).
func ComputeFactorsRandWorkers(src matio.RowSource, opts RandOptions) (*Factors, error) {
	f, _, err := randFactors(src, opts, nil)
	return f, err
}

// randFactors is the shared driver behind the randomized compressors.
//
// When zsink is non-nil and at least one power pass runs, zsink receives
// tᵢ = xᵢ·Q for every row i during the final streaming pass (concurrently
// from workers — rows are disjoint), and the returned rotation rot (b×r)
// satisfies V = Q·rot, hence xᵢ·V = tᵢ·rot: the caller can emit U rows
// from the buffered tᵢ without another pass. rot is nil when no power
// pass ran (Nyström path) or zsink was nil.
func randFactors(src matio.RowSource, opts RandOptions, zsink func(i int, t []float64)) (*Factors, *linalg.Matrix, error) {
	n, m := src.Dims()
	if n == 0 || m == 0 {
		return nil, nil, ErrEmptyMatrix
	}
	if opts.Rank < 1 {
		return nil, nil, fmt.Errorf("svd: randomized compressor needs Rank ≥ 1, got %d", opts.Rank)
	}
	rank := opts.Rank
	if rank > m {
		rank = m
	}
	b := opts.sketchWidth(m)
	workers := matio.NumWorkers(opts.Workers)
	q := opts.powerIters()

	omega := linalg.GaussianSketch(m, b, sketchSeed)
	y, _, err := sketchPass(src, "pass 1: sketch Y = C·Ω", omega, workers, true, false, nil)
	if err != nil {
		return nil, nil, err
	}

	if q == 0 {
		// Single-pass recovery: C is PSD, so Nyström reconstructs the
		// dominant eigenpairs from (Y, Ω) alone.
		eig, err := linalg.NystromEigen(y, omega)
		if err != nil {
			return nil, nil, fmt.Errorf("svd: sketch recovery: %w", err)
		}
		return truncateFactors(factorsFromEigen(n, m, eig.Values, eig.Vectors), rank), nil, nil
	}

	qf, err := linalg.QRFactor(y)
	if err != nil {
		return nil, nil, fmt.Errorf("svd: orthonormalize sketch: %w", err)
	}
	basis := qf.ThinQ()
	var g *linalg.Matrix
	for p := 1; p <= q; p++ {
		last := p == q
		var sink func(int, []float64)
		if last {
			sink = zsink
		}
		name := fmt.Sprintf("pass %d: power iteration Y ← C·Q", p+1)
		y2, g2, err := sketchPass(src, name, basis, workers, !last, true, sink)
		if err != nil {
			return nil, nil, err
		}
		g = g2
		if !last {
			qf, err := linalg.QRFactor(y2)
			if err != nil {
				return nil, nil, fmt.Errorf("svd: orthonormalize power basis: %w", err)
			}
			basis = qf.ThinQ()
		}
	}

	// Rayleigh–Ritz on range(Q): G = QᵀCQ is exact (accumulated from the
	// data, not approximated), so eigenpairs of G rotate Q into the Ritz
	// approximations of C's dominant eigenvectors.
	eig, err := linalg.SymEigen(g)
	if err != nil {
		return nil, nil, fmt.Errorf("svd: Rayleigh-Ritz eigendecomposition: %w", err)
	}
	v := linalg.Mul(basis, eig.Vectors)
	f := truncateFactors(factorsFromEigen(n, m, eig.Values, v), rank)
	var rot *linalg.Matrix
	if zsink != nil {
		rot = linalg.NewMatrix(b, f.Rank())
		for i := 0; i < b; i++ {
			copy(rot.Row(i), eig.Vectors.Row(i)[:f.Rank()])
		}
	}
	return f, rot, nil
}

// truncateFactors limits f to its first k components.
func truncateFactors(f *Factors, k int) *Factors {
	if k >= f.Rank() {
		return f
	}
	v := linalg.NewMatrix(f.Cols, k)
	for i := 0; i < f.Cols; i++ {
		copy(v.Row(i), f.V.Row(i)[:k])
	}
	return &Factors{Rows: f.Rows, Cols: f.Cols, Sigma: f.Sigma[:k:k], V: v}
}

// CompressRandWorkers builds a plain-SVD store with cutoff k using the
// sketch pipeline. With PowerIters ≥ 1 (default 1) the U rows are emitted
// from the final power pass's Z = X·Q buffer — U = Z·W·Σ⁻¹ — so the store
// is built in 1+PowerIters total streaming passes (2 at the default).
// With PowerIters = −1 the factors cost a single pass and U is projected
// by the standard pass 2, again 2 passes total.
func CompressRandWorkers(src matio.RowSource, k int, opts RandOptions) (*Store, error) {
	if opts.Rank == 0 {
		opts.Rank = k
	}
	if opts.Rank < 1 {
		opts.Rank = 1 // k ≤ 0 still yields a valid (empty) store below
	}
	if k < 0 {
		k = 0
	}
	n, _ := src.Dims()
	if opts.powerIters() == 0 {
		f, err := ComputeFactorsRandWorkers(src, opts)
		if err != nil {
			return nil, err
		}
		return CompressWithFactorsWorkers(src, f, k, opts.Workers)
	}
	_, m := src.Dims()
	z := linalg.NewMatrix(n, opts.sketchWidth(m))
	zsink := func(i int, t []float64) {
		// Workers hit disjoint rows, so no locking is needed.
		copy(z.Row(i), t)
	}
	f, rot, err := randFactors(src, opts, zsink)
	if err != nil {
		return nil, err
	}
	if k > f.Rank() {
		k = f.Rank()
	}
	u := linalg.NewMatrix(n, k)
	err = logPass("emit U from Z buffer", []slog.Attr{
		slog.Int("rows", n), slog.Int("k", k),
	}, func() error {
		for i := 0; i < n; i++ {
			zrow := z.Row(i)
			urow := u.Row(i)
			for j := 0; j < k; j++ {
				var s float64
				for l, zv := range zrow {
					s += zv * rot.At(l, j)
				}
				urow[j] = s / f.Sigma[j]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return New(f, k, matio.NewMem(u))
}

// sketchPass streams src once, computing tᵢ = xᵢ·P per row (P is M×b) and
// accumulating Y = Σ xᵢᵀtᵢ (when wantY) and G = Σ tᵢᵀtᵢ (when wantG).
// zsink, when non-nil, observes every (i, tᵢ); with workers > 1 it is
// called concurrently but never twice for the same row.
func sketchPass(src matio.RowSource, name string, p *linalg.Matrix, workers int, wantY, wantG bool, zsink func(i int, t []float64)) (*linalg.Matrix, *linalg.Matrix, error) {
	n, m := src.Dims()
	b := p.Cols()
	// One worker's accumulators; t is the scratch row tᵢ.
	type sketch struct {
		y, g *linalg.Matrix
		t    []float64
	}
	var total *sketch
	err := logPass(name, []slog.Attr{
		slog.Int("rows", n), slog.Int("cols", m), slog.Int("sketch", b), slog.Int("workers", workers),
	}, func() error {
		states, err := scanSharded(src, workers,
			func() *sketch {
				st := &sketch{t: make([]float64, b)}
				if wantY {
					st.y = linalg.NewMatrix(m, b)
				}
				if wantG {
					st.g = linalg.NewMatrix(b, b)
				}
				return st
			},
			func(st *sketch, i int, row []float64) error {
				sketchRow(p, row, st.t, st.y, st.g)
				if zsink != nil {
					zsink(i, st.t)
				}
				return nil
			})
		if err != nil {
			return err
		}
		total = reducePairwise(states, func(dst, src *sketch) {
			addMatrix(dst.y, src.y)
			addMatrix(dst.g, src.g)
		})
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("svd: sketch pass: %w", err)
	}
	return total.y, total.g, nil
}

// sketchRow computes t = row·P into t (reused between rows) and folds the
// row's contribution into the Y and/or G accumulators (either may be nil).
func sketchRow(p *linalg.Matrix, row, t []float64, y, g *linalg.Matrix) {
	for j := range t {
		t[j] = 0
	}
	for l, xv := range row {
		if xv == 0 {
			continue
		}
		linalg.Axpy(xv, p.Row(l), t)
	}
	if y != nil {
		for l, xv := range row {
			if xv == 0 {
				continue
			}
			linalg.Axpy(xv, t, y.Row(l))
		}
	}
	if g != nil {
		for j, tv := range t {
			if tv == 0 {
				continue
			}
			linalg.Axpy(tv, t, g.Row(j))
		}
	}
}
