package datacube

import (
	"errors"
	"fmt"

	"seqstore/internal/linalg"
)

// Tucker is a 3-mode PCA (Tucker) decomposition of a cube — the §6.1
// alternative the paper leaves as future work (c): approximate element
// x[i][j][k] by Σ_{h,l,r} A[i][h]·B[j][l]·C[k][r]·G[h][l][r], with factor
// matrices A (d1×r1), B (d2×r2), C (d3×r3) and core tensor G (r1×r2×r3)
// chosen to minimize squared error.
//
// Decompose computes the HOSVD initialization (per-mode eigenvectors of
// the unfolding Gram matrices, using the same eigensolver as the 2-d
// path) followed by optional HOOI refinement sweeps.
type Tucker struct {
	d1, d2, d3 int
	r1, r2, r3 int
	A, B, C    *linalg.Matrix
	G          []float64 // core, indexed [h·r2·r3 + l·r3 + r]
}

// ErrBadRank is returned for rank requests outside [1, dim].
var ErrBadRank = errors.New("datacube: tucker rank out of range")

// DecomposeTucker computes the Tucker decomposition of c with the given
// mode ranks. hooiSweeps ≥ 0 extra alternating refinement sweeps are run
// after the HOSVD initialization (1–2 usually suffice).
func DecomposeTucker(c *Cube, r1, r2, r3, hooiSweeps int) (*Tucker, error) {
	d1, d2, d3 := c.Dims()
	for _, rc := range []struct{ r, d int }{{r1, d1}, {r2, d2}, {r3, d3}} {
		if rc.r < 1 || rc.r > rc.d {
			return nil, fmt.Errorf("%w: %d of dimension %d", ErrBadRank, rc.r, rc.d)
		}
	}
	t := &Tucker{d1: d1, d2: d2, d3: d3, r1: r1, r2: r2, r3: r3}

	// HOSVD init: top-r eigenvectors of each mode's Gram matrix.
	var err error
	if t.A, err = modeFactors(c.data, d1, d2, d3, 1, r1); err != nil {
		return nil, err
	}
	if t.B, err = modeFactors(c.data, d1, d2, d3, 2, r2); err != nil {
		return nil, err
	}
	if t.C, err = modeFactors(c.data, d1, d2, d3, 3, r3); err != nil {
		return nil, err
	}

	// HOOI sweeps: re-fit each mode against the others' projections.
	for sweep := 0; sweep < hooiSweeps; sweep++ {
		// Mode 1: Y = X ×₂ Bᵀ ×₃ Cᵀ (dims d1×r2×r3), A ← top eig of Y's
		// mode-1 Gram.
		y := contractMode2(c.data, d1, d2, d3, t.B)
		y = contractMode3(y, d1, r2, d3, t.C)
		if t.A, err = modeFactors(y, d1, r2, r3, 1, r1); err != nil {
			return nil, err
		}
		y = contractMode1(c.data, d1, d2, d3, t.A)
		y = contractMode3(y, r1, d2, d3, t.C)
		if t.B, err = modeFactors(y, r1, d2, r3, 2, r2); err != nil {
			return nil, err
		}
		y = contractMode1(c.data, d1, d2, d3, t.A)
		y = contractMode2(y, r1, d2, d3, t.B)
		if t.C, err = modeFactors(y, r1, r2, d3, 3, r3); err != nil {
			return nil, err
		}
	}

	// Core: G = X ×₁ Aᵀ ×₂ Bᵀ ×₃ Cᵀ.
	g := contractMode1(c.data, d1, d2, d3, t.A) // r1×d2×d3
	g = contractMode2(g, r1, d2, d3, t.B)       // r1×r2×d3
	g = contractMode3(g, r1, r2, d3, t.C)       // r1×r2×r3
	t.G = g
	return t, nil
}

// modeFactors returns the top-r eigenvectors (as columns) of the mode-n
// Gram matrix of the (e1,e2,e3) tensor held in data.
func modeFactors(data []float64, e1, e2, e3, mode, r int) (*linalg.Matrix, error) {
	var dn int
	switch mode {
	case 1:
		dn = e1
	case 2:
		dn = e2
	default:
		dn = e3
	}
	gram := linalg.NewMatrix(dn, dn)
	// Accumulate Gram[i][i'] = Σ_rest x[..i..]·x[..i'..].
	switch mode {
	case 1:
		rest := e2 * e3
		for i := 0; i < e1; i++ {
			ri := data[i*rest : (i+1)*rest]
			for i2 := i; i2 < e1; i2++ {
				s := linalg.Dot(ri, data[i2*rest:(i2+1)*rest])
				gram.Set(i, i2, s)
				gram.Set(i2, i, s)
			}
		}
	case 2:
		for i := 0; i < e1; i++ {
			base := i * e2 * e3
			for j := 0; j < e2; j++ {
				rj := data[base+j*e3 : base+(j+1)*e3]
				for j2 := j; j2 < e2; j2++ {
					s := linalg.Dot(rj, data[base+j2*e3:base+(j2+1)*e3])
					gram.Set(j, j2, gram.At(j, j2)+s)
				}
			}
		}
		for j := 0; j < e2; j++ {
			for j2 := j + 1; j2 < e2; j2++ {
				gram.Set(j2, j, gram.At(j, j2))
			}
		}
	default:
		for i := 0; i < e1; i++ {
			for j := 0; j < e2; j++ {
				row := data[(i*e2+j)*e3 : (i*e2+j+1)*e3]
				for k := 0; k < e3; k++ {
					vk := row[k]
					if vk == 0 {
						continue
					}
					grow := gram.Row(k)
					for k2 := 0; k2 < e3; k2++ {
						grow[k2] += vk * row[k2]
					}
				}
			}
		}
	}
	eig, err := linalg.SymEigen(gram)
	if err != nil {
		return nil, fmt.Errorf("datacube: mode-%d eigen: %w", mode, err)
	}
	f := linalg.NewMatrix(dn, r)
	for i := 0; i < dn; i++ {
		copy(f.Row(i), eig.Vectors.Row(i)[:r])
	}
	return f, nil
}

// contractMode1 computes Y = X ×₁ Aᵀ: y[h][j][k] = Σ_i A[i][h]·x[i][j][k].
// The result has dims (a.Cols(), e2, e3).
func contractMode1(data []float64, e1, e2, e3 int, a *linalg.Matrix) []float64 {
	r := a.Cols()
	out := make([]float64, r*e2*e3)
	rest := e2 * e3
	for i := 0; i < e1; i++ {
		arow := a.Row(i)
		xi := data[i*rest : (i+1)*rest]
		for h, ah := range arow {
			if ah == 0 {
				continue
			}
			oh := out[h*rest : (h+1)*rest]
			for t, v := range xi {
				oh[t] += ah * v
			}
		}
	}
	return out
}

// contractMode2 computes Y = X ×₂ Bᵀ: y[i][l][k] = Σ_j B[j][l]·x[i][j][k].
// The result has dims (e1, b.Cols(), e3).
func contractMode2(data []float64, e1, e2, e3 int, b *linalg.Matrix) []float64 {
	r := b.Cols()
	out := make([]float64, e1*r*e3)
	for i := 0; i < e1; i++ {
		for j := 0; j < e2; j++ {
			brow := b.Row(j)
			xj := data[(i*e2+j)*e3 : (i*e2+j+1)*e3]
			for l, bl := range brow {
				if bl == 0 {
					continue
				}
				ol := out[(i*r+l)*e3 : (i*r+l+1)*e3]
				for k, v := range xj {
					ol[k] += bl * v
				}
			}
		}
	}
	return out
}

// contractMode3 computes Y = X ×₃ Cᵀ: y[i][j][r] = Σ_k C[k][r]·x[i][j][k].
// The result has dims (e1, e2, c.Cols()).
func contractMode3(data []float64, e1, e2, e3 int, c *linalg.Matrix) []float64 {
	r := c.Cols()
	out := make([]float64, e1*e2*r)
	for t := 0; t < e1*e2; t++ {
		xk := data[t*e3 : (t+1)*e3]
		ok := out[t*r : (t+1)*r]
		for k, v := range xk {
			if v == 0 {
				continue
			}
			crow := c.Row(k)
			for rr, cv := range crow {
				ok[rr] += v * cv
			}
		}
	}
	return out
}

// Dims returns the cube dimensions.
func (t *Tucker) Dims() (int, int, int) { return t.d1, t.d2, t.d3 }

// Ranks returns the mode ranks (r1, r2, r3).
func (t *Tucker) Ranks() (int, int, int) { return t.r1, t.r2, t.r3 }

// Cell reconstructs element (i, j, k) in O(r1·r2·r3).
func (t *Tucker) Cell(i, j, k int) (float64, error) {
	if i < 0 || i >= t.d1 || j < 0 || j >= t.d2 || k < 0 || k >= t.d3 {
		return 0, fmt.Errorf("datacube: tucker index (%d,%d,%d) out of range %d×%d×%d",
			i, j, k, t.d1, t.d2, t.d3)
	}
	arow := t.A.Row(i)
	brow := t.B.Row(j)
	crow := t.C.Row(k)
	var x float64
	for h, ah := range arow {
		if ah == 0 {
			continue
		}
		for l, bl := range brow {
			hb := ah * bl
			if hb == 0 {
				continue
			}
			base := (h*t.r2 + l) * t.r3
			for r, cr := range crow {
				x += hb * cr * t.G[base+r]
			}
		}
	}
	return x, nil
}

// StoredNumbers returns d1·r1 + d2·r2 + d3·r3 + r1·r2·r3, the space cost of
// the factor matrices plus the core tensor.
func (t *Tucker) StoredNumbers() int64 {
	return int64(t.d1)*int64(t.r1) + int64(t.d2)*int64(t.r2) + int64(t.d3)*int64(t.r3) +
		int64(t.r1)*int64(t.r2)*int64(t.r3)
}

// TuckerRanksForBudget picks proportional mode ranks r_n ≈ f·d_n with the
// largest f whose representation fits within budget·(d1·d2·d3) numbers.
func TuckerRanksForBudget(d1, d2, d3 int, budget float64) (int, int, int) {
	total := budget * float64(d1) * float64(d2) * float64(d3)
	cost := func(f float64) float64 {
		r1, r2, r3 := rankAt(d1, f), rankAt(d2, f), rankAt(d3, f)
		return float64(d1*r1+d2*r2+d3*r3) + float64(r1)*float64(r2)*float64(r3)
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if cost(mid) <= total {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rankAt(d1, lo), rankAt(d2, lo), rankAt(d3, lo)
}

func rankAt(d int, f float64) int {
	r := int(f * float64(d))
	if r < 1 {
		r = 1
	}
	if r > d {
		r = d
	}
	return r
}
