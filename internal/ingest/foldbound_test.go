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
	"seqstore/internal/exact"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/metrics"
	"seqstore/internal/query"
	"seqstore/internal/store"
	"seqstore/internal/trace"
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
// its saved segment and WAL. After every step the cold segment's factored
// sum and stddev registers must be a per-row fold's (checkFoldMoments, run
// before each compaction too, so the folds meet a built delta view), and
// each cold cell must be a stored delta or lie within max(τ, 1e-12) + ε of
// the value written, where τ is the smallest stored |δ| when the tier
// opened and, at b = 4,
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
	checkFoldMoments(t, ti)
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
			// The factored stddev of checkFoldMoments builds the cold
			// store's column-major delta view before the compaction, and
			// its min and max the extremum index; the folds must drop both:
			// the check after this step rebuilds them over the folded rows.
			checkFoldMoments(t, ti)
			if ti.Cold().NumOutliers() > 0 && ti.Cold().DeltaColumnsBytes() == 0 {
				t.Fatal("a factored stddev left the delta view unbuilt")
			}
			if ti.Cold().ExtremaBytes() == 0 {
				t.Fatal("a min and a max left the extremum index unbuilt")
			}
			folded, err := ti.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if folded > 0 && ti.Cold().DeltaColumnsBytes() != 0 {
				t.Fatalf("%d rows folded and the delta view was kept", folded)
			}
			if folded > 0 && ti.Cold().ExtremaBytes() != 0 {
				t.Fatalf("%d rows folded and the extremum index was kept", folded)
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
		checkFoldMoments(t, ti)
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

// checkFoldMoments evaluates a factored sum and stddev over the cold
// segment of ti — over a range that straddles the folded tail (from 70 rows
// before the first folded row to the last cold row) and over the whole
// segment — and requires every register of each partial to equal,
// register for register, a per-term exact.Sum fold over the same rows: the
// U components and Gram, the V components and Gram, and the delta
// corrections δ and 2bδ+δ². The cold store's moment index must cover every
// whole 64-row block, folds and reopens included, so whole blocks are
// staged from the index while the ragged rows are folded one by one. A min
// and a max over the same selections, which build the cold store's
// extremum index, must be the naive fold of its rows.
func checkFoldMoments(t *testing.T, ti *Tiered) {
	t.Helper()
	cold := ti.Cold()
	base := cold.Base()
	n, m := cold.Dims()
	if got := base.RowMoments().Len(); got != n/exact.BlockRows {
		t.Fatalf("%d cold rows, %d blocks indexed", n, got)
	}
	sigma, v, k := base.Sigma(), base.V(), base.K()
	cols := make([]int, 0, m)
	for j := 3; j < m; j += 2 {
		cols = append(cols, j)
	}
	for _, lo := range []int{foldBoundCold - 70, 0} {
		sel := query.Selection{Cols: cols}
		for i := lo; i < n; i++ {
			sel.Rows = append(sel.Rows, i)
		}
		rowSum, rowG := make([]exact.Sum, k), make([]exact.Sum, k*k)
		colSum, colG := make([]exact.Sum, k), make([]exact.Sum, k*k)
		var corr, corrSq exact.Sum
		selected := make([]bool, m)
		for _, j := range cols {
			selected[j] = true
			foldTerms(colSum, colG, v.Row(j))
		}
		u, su := make([]float64, k), make([]float64, k)
		for _, i := range sel.Rows {
			if err := base.URow(i, u); err != nil {
				t.Fatal(err)
			}
			foldTerms(rowSum, rowG, u)
			for c := range u {
				su[c] = u[c] * sigma[c]
			}
			cold.RowDeltas(i, func(j int, d float64) {
				if selected[j] {
					b := linalg.Dot(su, v.Row(j))
					corr.Add(1 * d)
					corrSq.Add(1 * (2*b*d + d*d))
				}
			})
		}
		for _, agg := range []query.Aggregate{query.Sum, query.StdDev} {
			for _, workers := range []int{1, 2} {
				tr := trace.New("t", "/test")
				p, err := query.EvaluatePartial(cold, agg, sel, query.Options{Workers: workers, Ctx: trace.NewContext(context.Background(), tr)})
				if err != nil {
					t.Fatal(err)
				}
				if read := tr.Ledger.Snapshot().RowsRead; lo == 0 && agg == query.Sum && read >= int64(n) {
					t.Fatalf("sum/w%d over all %d cold rows read %d: no block staged from the index", workers, n, read)
				}
				want := [][]exact.Sum{rowSum, colSum, {corr}}
				got := [][]exact.Sum{p.RowSum, p.ColSum, {p.CorrSum}}
				if agg == query.StdDev {
					want = append(want, rowG, colG, []exact.Sum{corrSq})
					got = append(got, p.RowG, p.ColG, []exact.Sum{p.CorrSumSq})
				}
				for r := range want {
					for i := range want[r] {
						if !got[r][i].Equal(&want[r][i]) {
							t.Fatalf("%v/w%d over rows [%d, %d): register %d.%d is not the per-row fold's", agg, workers, lo, n, r, i)
						}
					}
				}
			}
		}
		// Min and max through the cold store's extremum index are the
		// naive fold of its rows.
		lowest, highest := math.Inf(1), math.Inf(-1)
		for _, i := range sel.Rows {
			row, err := cold.Row(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range cols {
				lowest, highest = min(lowest, row[j]), max(highest, row[j])
			}
		}
		for agg, want := range map[query.Aggregate]float64{query.Min: lowest, query.Max: highest} {
			if got, err := query.Evaluate(cold, agg, sel); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v over rows [%d, %d) = %v (%v), the naive fold's %v", agg, lo, n, got, err, want)
			}
		}
	}
}

// foldTerms adds row's components to acc and its upper-triangle products
// to the k×k Gram g, one exact.Sum.Add per term, a zero entry's products
// skipped.
func foldTerms(acc, g []exact.Sum, row []float64) {
	k := len(row)
	for a, ra := range row {
		acc[a].Add(ra)
		if ra == 0 {
			continue
		}
		for b := a; b < k; b++ {
			g[a*k+b].Add(ra * row[b])
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

// TestTieredBuildsNoDeltaView pins where the cold store's column-major
// delta view and extremum index are built: the tiered door plans every
// aggregate generic, so no aggregate, batch or EXPLAIN through it builds
// either and a writable node holds none of their memory, while one
// factored stddev on the cold store itself builds the view at 12 bytes per
// delta plus the column offsets, and one min the index at 24·L bytes per
// column plus its flags and a bit per row.
func TestTieredBuildsNoDeltaView(t *testing.T) {
	cold, err := core.Compress(matio.NewMem(phoneData(200)), core.Options{Budget: 0.2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ti := openTiered(t, cold, t.TempDir(), Options{DisableBackground: true, Workers: 1})
	defer ti.Close()
	x := phoneData(240)
	var rows [][]float64
	for i := 200; i < 240; i++ {
		rows = append(rows, x.Row(i))
	}
	if _, err := ti.AppendBatch(context.Background(), nil, rows); err != nil {
		t.Fatal(err)
	}
	_, m := ti.Dims()
	ints := func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	sel := query.Selection{Rows: ints(10, 230), Cols: ints(2, m-3)}
	var items []query.BatchItem
	for _, agg := range []query.Aggregate{query.Sum, query.Avg, query.StdDev, query.Min, query.Max} {
		if _, err := query.EvaluateOpts(ti, agg, sel, query.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := query.ExplainQuery(ti, agg, sel, query.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		items = append(items, query.BatchItem{Agg: agg, Sel: sel})
	}
	if _, err := query.EvaluateBatch(ti, items, query.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := ti.Cold().DeltaColumnsBytes(); got != 0 {
		t.Fatalf("aggregates through the tiered door built a %d-byte delta view", got)
	}
	if got := ti.Cold().ExtremaBytes(); got != 0 {
		t.Fatalf("aggregates through the tiered door built a %d-byte extremum index", got)
	}
	cold = ti.Cold()
	if cold.NumOutliers() == 0 {
		t.Fatal("the cold store holds no deltas")
	}
	if _, err := query.Evaluate(cold, query.StdDev, query.Selection{Rows: ints(10, 200), Cols: sel.Cols}); err != nil {
		t.Fatal(err)
	}
	if got, want := cold.DeltaColumnsBytes(), 12*cold.NumOutliers()+4*(m+1); got != want {
		t.Fatalf("a factored stddev on the cold store built a %d-byte view, want %d", got, want)
	}
	if _, err := query.Evaluate(cold, query.Min, query.Selection{Rows: ints(10, 200), Cols: sel.Cols}); err != nil {
		t.Fatal(err)
	}
	if got, want := cold.ExtremaBytes(), 24*core.ExtremaDepth*m+4*m+8*((m+63)/64)+8*((200+63)/64); got != want {
		t.Fatalf("a min on the cold store built a %d-byte extremum index, want %d", got, want)
	}
}
