package ingest

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/metrics"
	"seqstore/internal/store"
)

// The fold-bound sequences run over one phone set, a year of days wide:
// foldBoundCold rows compressed with SVDD at a 10 % budget, then up to
// foldBoundFresh more rows of the same generator appended and folded.
const (
	foldBoundCold  = 400
	foldBoundFresh = 400
)

func foldBoundPhone(n int) *linalg.Matrix {
	return dataset.GeneratePhone(dataset.DefaultPhoneConfig(n))
}

var foldBoundFixture = sync.OnceValues(func() ([]byte, error) {
	s, err := core.Compress(matio.NewMem(foldBoundPhone(foldBoundCold)), core.Options{Budget: 0.10, Workers: 1})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = store.Write(&buf, s)
	return buf.Bytes(), err
})

var foldBoundRows = sync.OnceValue(func() *linalg.Matrix { return foldBoundPhone(foldBoundCold + foldBoundFresh) })

// foldBoundResult is what one sequence measured.
type foldBoundResult struct {
	outside    int     // cold cells neither a stored delta nor within the bound
	tauMoved   int     // steps after which min |δ| was no longer the τ the tier opened with
	rmspe      float64 // folded rows' RMSPE against the rows written, in percent
	foldDeltas int     // deltas the folds stored
	folded     int     // rows folded
}

// runFoldBound drives one sequence of bulk appends, compactions and
// close-and-reopens on a tiered SVDD store at b bytes per number, one
// operation per byte of ops: low two bits 0 or 1 append a bulk of
// 1 + (op>>2)%16 rows, 2 compacts, 3 closes the tier and opens it again from
// its saved segment and WAL. After every step each cold cell must be a
// stored delta or lie within max(τ, 1e-12) + ε of the value
// written, where τ is the smallest stored |δ| when the tier opened and, at
// b = 4,
//
//	ε = 2⁻²²·Σ_m |σ_m·u_im·v_jm| + 2⁻²⁴·τ.
//
// The compressed rows' errors were measured at b = 8, and the b = 4 file
// rounds σ, U and V to float32 after that: each term σ·u·v moves by at
// most about 3·2⁻²⁴ of itself, and τ, read back from float32 deltas, is
// low by at most 2⁻²⁴ of itself. A fold computes its residual from the
// rounded factors, so a folded row needs no ε; at b = 8 nothing is
// rounded and ε is 0.
func runFoldBound(t *testing.T, prec int, ops []byte) foldBoundResult {
	t.Helper()
	raw, err := foldBoundFixture()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := store.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cold := decoded.(*core.Store)
	if prec == 4 {
		if cold, err = withPrecision(cold, 4); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	sqz := filepath.Join(dir, "cold.sqz")
	if err := store.Save(sqz, cold); err != nil {
		t.Fatal(err)
	}
	opts := Options{DisableBackground: true, PersistPath: sqz, Workers: 1}
	ti := openTiered(t, cold, dir, opts)
	defer func() { ti.Close() }()

	tau := minAbsDelta(ti.Cold())
	deltas0 := ti.Cold().NumOutliers()
	x := foldBoundRows()
	// outside[i] is what the last check of row i found: a folded row never
	// changes, so only rows new to the cold segment need a check after a
	// compaction, and every row after a reopen.
	outside := make([]int, x.Rows())
	checkFoldBound(t, ti, x, tau, prec, 0, outside)
	next := foldBoundCold
	var res foldBoundResult
	for _, op := range ops {
		checked := ti.ColdRows()
		switch op & 3 {
		case 0, 1:
			var rows [][]float64
			for r := 0; r <= int(op>>2)%16 && next < x.Rows(); r++ {
				rows = append(rows, x.Row(next))
				next++
			}
			if len(rows) == 0 {
				continue
			}
			if _, err := ti.AppendBatch(context.Background(), nil, rows); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := ti.Compact(); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := ti.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err := store.Load(sqz)
			if err != nil {
				t.Fatal(err)
			}
			ti = openTiered(t, loaded, dir, opts)
			checked = 0
		}
		checkFoldBound(t, ti, x, tau, prec, checked, outside)
		if got := minAbsDelta(ti.Cold()); got != tau {
			res.tauMoved++
		}
	}
	for _, n := range outside {
		res.outside += n
	}
	var folded metrics.Accumulator
	for i := foldBoundCold; i < ti.ColdRows(); i++ {
		row, err := ti.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		folded.AddRow(i, x.Row(i), row)
	}
	if folded.N() > 0 {
		res.rmspe = 100 * folded.RMSPE()
	}
	res.foldDeltas = ti.Cold().NumOutliers() - deltas0
	res.folded = ti.ColdRows() - foldBoundCold
	return res
}

// checkFoldBound sets outside[i], for each cold row i of ti from lo on, to
// the number of its cells that are neither a stored delta nor within the
// bound of x (see runFoldBound).
func checkFoldBound(t *testing.T, ti *Tiered, x *linalg.Matrix, tau float64, prec, lo int, outside []int) {
	t.Helper()
	cold := ti.Cold()
	base := cold.Base()
	sigma, v := base.Sigma(), base.V()
	_, m := cold.Dims()
	u := make([]float64, len(sigma))
	pinned := make([]bool, m)
	for i := lo; i < ti.ColdRows(); i++ {
		row, err := ti.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		clear(pinned)
		cold.RowDeltas(i, func(col int, _ float64) { pinned[col] = true })
		if err := base.URow(i, u); err != nil {
			t.Fatal(err)
		}
		outside[i] = 0
		for j := 0; j < m; j++ {
			limit := max(tau, 1e-12)
			if prec == 4 {
				var terms float64
				for c, s := range sigma {
					terms += math.Abs(s * u[c] * v.At(j, c))
				}
				limit += 0x1p-22*terms + 0x1p-24*tau
			}
			if !pinned[j] && math.Abs(row[j]-x.At(i, j)) > limit {
				outside[i]++
			}
		}
	}
}

// minAbsDelta is τ as the store's deltas say it: the smallest |δ|, +Inf
// when there are none.
func minAbsDelta(s *core.Store) float64 {
	tau := math.Inf(1)
	s.Deltas(func(_, _ int, d float64) { tau = min(tau, math.Abs(d)) })
	return tau
}

// foldBoundOps is a seeded sequence of n operations for runFoldBound,
// ending in a compaction, a close-and-reopen and another compaction.
func foldBoundOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, n, n+3)
	for k := range ops {
		ops[k] = byte(rng.Intn(256))
	}
	return append(ops, 2, 3, 2)
}

// TestFoldBound pins §4.2's bound across folds: after every step of seeded
// sequences of bulks, compactions and reopens on a tiered SVDD store, at
// b = 8 and b = 4, every cell is a stored delta or within τ (plus the
// stated b = 4 term) of the value written, and τ does not move.
func TestFoldBound(t *testing.T) {
	for _, prec := range []int{8, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			res := runFoldBound(t, prec, foldBoundOps(seed, 40))
			t.Logf("b = %d, seed %d: %d rows folded, %d fold deltas, folded RMSPE %.3f %%, %d cells outside the bound, τ moved after %d steps",
				prec, seed, res.folded, res.foldDeltas, res.rmspe, res.outside, res.tauMoved)
			if res.folded == 0 || res.foldDeltas == 0 {
				t.Fatalf("b = %d, seed %d: %d rows folded, %d deltas: the sequence exercises no fold", prec, seed, res.folded, res.foldDeltas)
			}
			if res.outside > 0 || res.tauMoved > 0 {
				t.Errorf("b = %d, seed %d: %d cells outside the bound, τ moved after %d steps", prec, seed, res.outside, res.tauMoved)
			}
		}
	}
}

// FuzzFoldBound draws the operation sequence of TestFoldBound's property
// from the fuzz input.
func FuzzFoldBound(f *testing.F) {
	f.Add(false, foldBoundOps(1, 12))
	f.Add(true, foldBoundOps(2, 12))
	f.Fuzz(func(t *testing.T, b4 bool, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		prec := 8
		if b4 {
			prec = 4
		}
		if res := runFoldBound(t, prec, ops); res.outside > 0 || res.tauMoved > 0 {
			t.Fatalf("b = %d: %d cells outside the bound, τ moved after %d steps", prec, res.outside, res.tauMoved)
		}
	})
}
