// Package svd implements the paper's "plain SVD" compression method
// (§4.1): a two-pass, out-of-core computation of the truncated singular
// value decomposition of the data matrix, and a Store that reconstructs any
// cell in O(k) time with a single row access to U.
//
// Pass 1 (Figure 2) streams the rows of X once to accumulate the M×M
// column-to-column similarity matrix C = XᵀX, whose eigenvectors are V and
// whose eigenvalues are the squared singular values (Lemma 3.2). Pass 2
// (Figure 3) streams X again, emitting each row of U = X·V·Λ⁻¹ as it goes —
// row i of U depends only on row i of X, which is what makes the algorithm
// two-pass.
package svd

import (
	"errors"
	"fmt"
	"log/slog"
	"math"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
)

// ErrEmptyMatrix is returned when compressing a matrix with no rows or
// columns.
var ErrEmptyMatrix = errors.New("svd: empty matrix")

// Factors is the output of pass 1: the singular values and right singular
// vectors of the data matrix, at full numerical rank.
type Factors struct {
	Rows, Cols int
	// Sigma holds the singular values in decreasing order (length r, the
	// numerical rank).
	Sigma []float64
	// V is the Cols×r matrix of right singular vectors (the "day-to-pattern
	// similarity matrix", Observation 3.2).
	V *linalg.Matrix
}

// Rank returns the numerical rank r.
func (f *Factors) Rank() int { return len(f.Sigma) }

// Clamp returns k limited to [0, r].
func (f *Factors) Clamp(k int) int {
	if k < 0 {
		k = 0
	}
	if k > f.Rank() {
		k = f.Rank()
	}
	return k
}

// AccumulateCWorkers computes the column-to-column similarity matrix C = XᵀX
// in a single pass over the rows of src (Figure 2 of the paper), sharded
// across workers (0 ⇒ GOMAXPROCS, 1 ⇒ serial). C is symmetric, so each worker
// accumulates only the upper triangle of its own M×M partial sum — halving
// the pass-1 flops; partials are reduced pairwise in fixed worker order and
// mirrored once at the end. Because x_j·x_l and x_l·x_j are the same product
// and rows are added in the same order, one worker's result is bit-identical
// to the full accumulation.
func AccumulateCWorkers(src matio.RowSource, workers int) (*linalg.Matrix, error) {
	rows, m := src.Dims()
	var c *linalg.Matrix
	err := logPass("pass 1: accumulate C", []slog.Attr{
		slog.Int("rows", rows), slog.Int("cols", m), slog.Int("workers", matio.NumWorkers(workers)),
	}, func() error {
		partials, err := scanSharded(src, workers,
			func() *gram { return newGram(m) },
			func(g *gram, _ int, row []float64) error {
				g.add(row)
				return nil
			})
		if err != nil {
			return fmt.Errorf("svd: pass 1: %w", err)
		}
		for _, g := range partials {
			g.flush()
		}
		c = reducePairwise(partials, func(dst, src *gram) { addMatrix(dst.c, src.c) }).c
		mirrorUpper(c)
		return nil
	})
	return c, err
}

// gram is one worker's pass-1 accumulator: the upper triangle of its partial
// C and a block of up to four rows not yet added into it.
type gram struct {
	c     *linalg.Matrix
	block [4][]float64 // copies: a scanner reuses the row slice it hands out
	n     int          // rows held in block
}

func newGram(m int) *gram {
	g := &gram{c: linalg.NewMatrix(m, m)}
	for r := range g.block {
		g.block[r] = make([]float64, m)
	}
	return g
}

// add buffers a row, adding the block into c once it holds four.
func (g *gram) add(row []float64) {
	copy(g.block[g.n], row)
	if g.n++; g.n == len(g.block) {
		g.flush()
	}
}

// flush adds the outer products row·rowᵀ of the buffered rows into the upper
// triangle of c, four rows per sweep: C row j is loaded once per block and
// receives, through linalg.AxpyRows, the rows whose element j is nonzero in
// row order. Each C[j][l] thus gets the adds of one linalg.Axpy per (row, j)
// with zeros skipped per (row, j), in row order — the same roundings as
// row-at-a-time accumulation, bit for bit, at every block boundary.
func (g *gram) flush() {
	var alpha [4]float64
	var x [4][]float64
	for j := range g.c.Rows() {
		a := 0
		for _, row := range g.block[:g.n] {
			if v := row[j]; v != 0 {
				alpha[a], x[a] = v, row[j:]
				a++
			}
		}
		linalg.AxpyRows(alpha[:a], x[:a], g.c.Row(j)[j:])
	}
	g.n = 0
}

// mirrorUpper copies the strict upper triangle of c onto the lower.
func mirrorUpper(c *linalg.Matrix) {
	m := c.Rows()
	for j := 0; j < m; j++ {
		crow := c.Row(j)
		for l := j + 1; l < m; l++ {
			c.Row(l)[j] = crow[l]
		}
	}
}

// ComputeFactors runs pass 1: it accumulates C and eigendecomposes it
// in memory, returning the full-rank singular values and V.
func ComputeFactors(src matio.RowSource) (*Factors, error) {
	return ComputeFactorsWorkers(src, 1)
}

// ComputeFactorsWorkers is ComputeFactors with the C accumulation sharded
// across workers (0 ⇒ GOMAXPROCS, 1 ⇒ serial).
func ComputeFactorsWorkers(src matio.RowSource, workers int) (*Factors, error) {
	n, m := src.Dims()
	if n == 0 || m == 0 {
		return nil, ErrEmptyMatrix
	}
	c, err := AccumulateCWorkers(src, workers)
	if err != nil {
		return nil, err
	}
	var eig *linalg.Eigen
	eigErr := logPass("pass 1: eigendecompose C", []slog.Attr{slog.Int("cols", m)}, func() error {
		var err error
		eig, err = linalg.SymEigen(c)
		return err
	})
	if eigErr != nil {
		return nil, fmt.Errorf("svd: eigendecomposition of C: %w", eigErr)
	}
	return factorsFromEigen(n, m, eig.Values, eig.Vectors), nil
}

// factorsFromEigen converts an eigendecomposition of C into Factors.
// Eigenvalues of C are σ²; numerically-zero components are dropped so that
// U = X·V·Λ⁻¹ never divides by (near-)zero.
func factorsFromEigen(n, m int, values []float64, vectors *linalg.Matrix) *Factors {
	sigma := make([]float64, 0, len(values))
	for _, ev := range values {
		if ev < 0 {
			ev = 0
		}
		sigma = append(sigma, math.Sqrt(ev))
	}
	tol := 0.0
	if len(sigma) > 0 {
		tol = sigma[0] * 1e-10
	}
	r := 0
	for _, s := range sigma {
		if s > tol && s > 0 {
			r++
		} else {
			break
		}
	}
	v := linalg.NewMatrix(m, r)
	for i := 0; i < m; i++ {
		copy(v.Row(i), vectors.Row(i)[:r])
	}
	return &Factors{Rows: n, Cols: m, Sigma: sigma[:r], V: v}
}

// ComputeU runs pass 2 (Figure 3) serially: sink sees the rows of U in
// order.
func ComputeU(src matio.RowSource, f *Factors, k int, sink func(i int, urow []float64) error) error {
	return ComputeUWorkers(src, f, k, 1, sink)
}

// ComputeUWorkers runs pass 2 (Figure 3): it streams the rows of src,
// sharded across workers (0 ⇒ GOMAXPROCS, 1 ⇒ serial), and calls sink once
// per row with that row of the N×k matrix U, computed as
// u[i][j] = Σ_l x[i][l]·v[l][j] / σ_j (Eq. 11). With more than one worker
// sink runs concurrently for different rows, in no global order — index by
// i. The urow slice is reused between calls. A U row depends on its data
// row alone, so the values are bit-identical for every worker count.
func ComputeUWorkers(src matio.RowSource, f *Factors, k, workers int, sink func(i int, urow []float64) error) error {
	rows, m := src.Dims()
	if f.Cols != m { // projectRow would index V out of range
		return fmt.Errorf("svd: factors are for %d columns, source has %d (%w)", f.Cols, m, seqerr.ErrOutOfRange)
	}
	k = f.Clamp(k)
	return logPass("pass 2: project U", []slog.Attr{
		slog.Int("rows", rows), slog.Int("k", k), slog.Int("workers", matio.NumWorkers(workers)),
	}, func() error {
		_, err := scanSharded(src, workers,
			func() []float64 { return make([]float64, k) },
			func(urow []float64, i int, row []float64) error {
				projectRow(row, f, k, urow)
				return sink(i, urow)
			})
		if err != nil {
			return fmt.Errorf("svd: pass 2: %w", err)
		}
		return nil
	})
}

// projectRow fills urow[0:k] with the U-row for the given data row.
func projectRow(row []float64, f *Factors, k int, urow []float64) {
	for j := 0; j < k; j++ {
		urow[j] = 0
	}
	for l, xv := range row {
		if xv == 0 {
			continue
		}
		vrow := f.V.Row(l)
		for j := 0; j < k; j++ {
			urow[j] += xv * vrow[j]
		}
	}
	for j := 0; j < k; j++ {
		urow[j] /= f.Sigma[j]
	}
}

// KForBudget returns the largest cutoff k whose plain-SVD representation
// (N·k + k + k·M stored numbers, Eq. 9) fits within the given fraction of
// the raw N·M numbers. The result may be 0 when the budget is too small for
// even one component.
func KForBudget(n, m int, budget float64) int {
	if n <= 0 || m <= 0 || budget <= 0 {
		return 0
	}
	total := budget * float64(n) * float64(m)
	k := int(total / float64(n+1+m))
	if k < 0 {
		k = 0
	}
	if k > m {
		k = m
	}
	return k
}

// StoredNumbers returns the paper's space cost of a plain-SVD representation
// with the given dimensions and cutoff.
func StoredNumbers(n, m, k int) int64 {
	return int64(n)*int64(k) + int64(k) + int64(k)*int64(m)
}
