package query

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/dct"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/vq"
	"seqstore/internal/wavelet"
)

// allAggregates enumerates every supported aggregate for sweep tests.
var allAggregates = []Aggregate{Sum, Avg, Count, Min, Max, StdDev}

// engineStores builds one store of every method over the same matrix, so
// the engine sweep covers the projected (svd), delta (svdd) and generic
// (dct/cluster/wavelet) dispatch arms.
func engineStores(t *testing.T) map[string]store.Store {
	t.Helper()
	x := testMatrix()
	out := make(map[string]store.Store)
	sv, err := svd.Compress(matio.NewMem(x), 5)
	if err != nil {
		t.Fatal(err)
	}
	out["svd"] = core.Plain(sv)
	sd, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	out["svdd"] = sd
	dc, err := dct.Compress(matio.NewMem(x), 8)
	if err != nil {
		t.Fatal(err)
	}
	out["dct"] = dc
	cl, err := vq.Compress(x, 6)
	if err != nil {
		t.Fatal(err)
	}
	out["cluster"] = cl
	wv, err := wavelet.Compress(matio.NewMem(x), 8)
	if err != nil {
		t.Fatal(err)
	}
	out["wavelet"] = wv
	return out
}

// fileBackedSVD builds a plain-SVD store whose U lives in an .smx file on
// disk — the paper's operating point, and the backing where the engine's
// coalesced range scans actually matter.
func fileBackedSVD(t *testing.T, rows int) *core.Store {
	t.Helper()
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(rows))
	src := matio.NewMem(x)
	f, err := svd.ComputeFactors(src)
	if err != nil {
		t.Fatal(err)
	}
	k := f.Clamp(8)
	path := filepath.Join(t.TempDir(), "u.smx")
	w, err := matio.Create(path, x.Rows(), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := svd.ComputeU(src, f, k, func(i int, urow []float64) error {
		return w.WriteRow(urow)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	uf, err := matio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uf.Close() })
	st, err := svd.New(f, k, uf)
	if err != nil {
		t.Fatal(err)
	}
	return core.Plain(st)
}

// aggTolerance is the agreement bound between engine paths and the naive
// reference for one aggregate. Count/Min/Max must match bit-for-bit (the
// projected per-cell values are the same dot products the full-row path
// computes, and extremum/count reductions are order-independent); the
// summing aggregates reorder float additions across chunks and factored
// forms, so they get a small relative tolerance.
func aggTolerance(agg Aggregate, want float64) float64 {
	switch agg {
	case Count, Min, Max:
		return 0
	case StdDev:
		// The factored second moment cancels; acceptance bound is 1e-6.
		return 1e-6 * math.Max(math.Abs(want), 1)
	default:
		return 1e-9 * math.Max(math.Abs(want), 1)
	}
}

// TestEngineMatchesNaiveEveryStoreAndWorkerCount is the metamorphic sweep:
// every aggregate × every store method × workers {1, 3, 8} must agree with
// the serial naive reference.
func TestEngineMatchesNaiveEveryStoreAndWorkerCount(t *testing.T) {
	stores := engineStores(t)
	rng := rand.New(rand.NewSource(11))
	for name, s := range stores {
		n, m := s.Dims()
		for trial := 0; trial < 5; trial++ {
			sel := RandomSelection(rng, n, m, 0.02+0.3*rng.Float64())
			for _, agg := range allAggregates {
				want, err := EvaluateNaive(s, agg, sel)
				if err != nil {
					t.Fatalf("%s/%v: naive: %v", name, agg, err)
				}
				for _, workers := range []int{1, 3, 8} {
					got, err := EvaluateOpts(s, agg, sel, Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s/%v/w%d: %v", name, agg, workers, err)
					}
					if math.Abs(got-want) > aggTolerance(agg, want) {
						t.Errorf("%s/%v/w%d: engine %v != naive %v",
							name, agg, workers, got, want)
					}
				}
			}
		}
	}
}

// TestWorkerCountsAgreeFileBacked pins serial/parallel equivalence on a
// disk-resident U: workers 2/3/8 must reproduce the workers=1 answer for
// every aggregate (bit-for-bit for Count/Min/Max, 1e-9 relative for the
// summing aggregates' reordering).
func TestWorkerCountsAgreeFileBacked(t *testing.T) {
	s := fileBackedSVD(t, 300)
	n, m := s.Dims()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		sel := RandomSelection(rng, n, m, 0.05+0.4*rng.Float64())
		for _, agg := range allAggregates {
			base, err := EvaluateOpts(s, agg, sel, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, err := EvaluateOpts(s, agg, sel, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				tol := 0.0
				if agg == Sum || agg == Avg || agg == StdDev {
					tol = 1e-9 * math.Max(math.Abs(base), 1)
				}
				if math.Abs(got-base) > tol {
					t.Errorf("%v: workers=%d %v != workers=1 %v", agg, workers, got, base)
				}
			}
		}
	}
}

// TestConcurrentEvaluateSharedStore hammers one shared File-backed store
// with concurrent Evaluate calls at mixed worker counts and aggregates.
// Under -race (make check) it proves the engine shares a store safely:
// the only mutable state is per-worker scratch and the matio counters.
func TestConcurrentEvaluateSharedStore(t *testing.T) {
	s := fileBackedSVD(t, 200)
	n, m := s.Dims()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for trial := 0; trial < 10; trial++ {
				sel := RandomSelection(rng, n, m, 0.05+0.2*rng.Float64())
				agg := allAggregates[trial%len(allAggregates)]
				if _, err := EvaluateOpts(s, agg, sel, Options{Workers: 1 + g%4}); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// rawStore wraps a matrix in the store.Store interface with no compression
// at all, so tests can plant values (NaN) that no factor computation would
// survive. It exercises the engine's generic fallback arm.
type rawStore struct{ m *linalg.Matrix }

func (r rawStore) Dims() (int, int) { return r.m.Dims() }
func (r rawStore) Cell(i, j int) (float64, error) {
	return r.m.Row(i)[j], nil
}
func (r rawStore) Row(i int, dst []float64) ([]float64, error) {
	_, m := r.m.Dims()
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	copy(dst, r.m.Row(i))
	return dst, nil
}
func (r rawStore) StoredNumbers() int64 {
	n, m := r.m.Dims()
	return int64(n) * int64(m)
}
func (r rawStore) Method() store.Method { return store.Method(0) }

// TestNaNPoisonsEveryAggregate pins the documented NaN contract: one NaN
// cell inside the selection makes every aggregate (except the data-free
// Count) NaN — through the serial path, through the parallel merge, and
// matching EvaluateMatrix on the raw data.
func TestNaNPoisonsEveryAggregate(t *testing.T) {
	x := testMatrix()
	x.Row(7)[3] = math.NaN()
	s := rawStore{m: x}
	n, m := x.Dims()
	sel := Selection{Rows: All(n), Cols: All(m)}
	for _, agg := range allAggregates {
		want, err := EvaluateMatrix(x, agg, sel)
		if err != nil {
			t.Fatal(err)
		}
		if agg == Count {
			if math.IsNaN(want) {
				t.Fatalf("Count over NaN data must stay finite")
			}
		} else if !math.IsNaN(want) {
			t.Fatalf("EvaluateMatrix %v over NaN data = %v, want NaN", agg, want)
		}
		for _, workers := range []int{1, 3, 8} {
			got, err := EvaluateOpts(s, agg, sel, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if agg == Count {
				if got != want {
					t.Errorf("Count/w%d = %v, want %v", workers, got, want)
				}
			} else if !math.IsNaN(got) {
				t.Errorf("%v/w%d over NaN cell = %v, want NaN", agg, workers, got)
			}
		}
	}
	// A selection avoiding the NaN cell stays clean.
	sel = Selection{Rows: []int{0, 1, 2}, Cols: []int{0, 1, 2}}
	for _, agg := range allAggregates {
		got, err := EvaluateOpts(s, agg, sel, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(got) {
			t.Errorf("%v over NaN-free selection is NaN", agg)
		}
	}
}

// TestAccumMergeNaN pins NaN propagation through the reduction itself:
// merging a poisoned partial into a clean one must poison min and max no
// matter the merge order.
func TestAccumMergeNaN(t *testing.T) {
	clean, poisoned := newAccum(), newAccum()
	clean.add(1)
	clean.add(2)
	poisoned.add(math.NaN())
	for _, order := range [][2]*accum{{clean, poisoned}, {poisoned, clean}} {
		total := newAccum()
		total.Merge(order[0])
		total.Merge(order[1])
		if !math.IsNaN(total.min) || !math.IsNaN(total.max) {
			t.Errorf("merge lost NaN: min=%v max=%v", total.min, total.max)
		}
		if total.n != 3 {
			t.Errorf("merged count = %d, want 3", total.n)
		}
	}
}

// TestAddExtremaAllMatchesPerCell pins the projected engine's one-pass row
// folds, addMaxAll and addMinAll, to the per-cell addExtrema loop: over
// rows mixing NaNs of several payloads, ±0 (the first one seen stays), ±Inf
// and finite values, folded into accumulators that already hold earlier
// rows, the count and each fold's own extremum agree bit for bit, and the
// other extremum stays the empty fold.
func TestAddExtremaAllMatchesPerCell(t *testing.T) {
	pool := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000000),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1, -1, 2.5, -7.25, 5e-324, -1e300,
	}
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2000; trial++ {
		perCell, maxRow, minRow := newAccum(), newAccum(), newAccum()
		empty := newAccum()
		for row := rng.Intn(4); row >= 0; row-- {
			vals := make([]float64, rng.Intn(9))
			for i := range vals {
				vals[i] = pool[rng.Intn(len(pool))]
				if trial%2 == 0 && rng.Intn(3) > 0 {
					vals[i] = pool[3+rng.Intn(len(pool)-3)] // NaN-free half, so ±0 and ±Inf decide
				}
			}
			for _, v := range vals {
				perCell.addExtrema(v)
			}
			maxRow.addMaxAll(vals)
			minRow.addMinAll(vals)
			if maxRow.n != perCell.n || minRow.n != perCell.n ||
				math.Float64bits(minRow.min) != math.Float64bits(perCell.min) ||
				math.Float64bits(maxRow.max) != math.Float64bits(perCell.max) ||
				math.Float64bits(maxRow.min) != math.Float64bits(empty.min) ||
				math.Float64bits(minRow.max) != math.Float64bits(empty.max) {
				t.Fatalf("trial %d row %v: one pass n=%d/%d min=%#x max=%#x (others %#x %#x), per cell n=%d min=%#x max=%#x",
					trial, vals, minRow.n, maxRow.n, math.Float64bits(minRow.min), math.Float64bits(maxRow.max),
					math.Float64bits(maxRow.min), math.Float64bits(minRow.max),
					perCell.n, math.Float64bits(perCell.min), math.Float64bits(perCell.max))
			}
		}
	}
}

// TestFactoredDuplicateIndicesSVDD pins the multiset-weighting fix: with
// rows and columns deliberately duplicated — including ones that carry
// outlier deltas — the factored sum and stddev must agree with the naive
// cross-product evaluation, which counts a cell selected r·c times with
// weight r·c. (The old implementation collapsed duplicates to sets and
// counted each delta once.)
func TestFactoredDuplicateIndicesSVDD(t *testing.T) {
	x := testMatrix()
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumOutliers() == 0 {
		t.Fatal("test store has no deltas; duplicate weighting would be vacuous")
	}
	n, m := s.Dims()
	// Every row and column duplicated, so every delta in the selection is
	// weighted 4 — any set-collapse bug shows up at full scale.
	rows := append(All(n), All(n)...)
	cols := append(All(m), All(m)...)
	sel := Selection{Rows: rows, Cols: cols}
	for _, agg := range []Aggregate{Sum, Avg, StdDev} {
		want, err := EvaluateNaive(s, agg, sel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(s, agg, sel)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*math.Max(math.Abs(want), 1) {
			t.Errorf("%v with duplicated indices: factored %v != naive %v", agg, got, want)
		}
	}
	// And the factored sum at its tighter bound.
	fast, err := Evaluate(s, Sum, sel)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := EvaluateNaive(s, Sum, sel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-slow) > 1e-9*math.Max(math.Abs(slow), 1) {
		t.Errorf("factored sum with duplicates %v != naive %v", fast, slow)
	}
}

// TestFactoredStdDevMatchesNaive pins the acceptance bound: the factored
// O(k²·(|R|+|C|)) StdDev agrees with the naive evaluation within 1e-6
// relative, on plain SVD and on SVDD (delta corrections included).
func TestFactoredStdDevMatchesNaive(t *testing.T) {
	x := testMatrix()
	sPlain, err := svd.Compress(matio.NewMem(x), 5)
	if err != nil {
		t.Fatal(err)
	}
	sDelta, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, s := range []*core.Store{core.Plain(sPlain), sDelta} {
		n, m := s.Dims()
		for trial := 0; trial < 20; trial++ {
			sel := RandomSelection(rng, n, m, 0.02+0.4*rng.Float64())
			want, err := EvaluateNaive(s, StdDev, sel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Evaluate(s, StdDev, sel)
			if err != nil {
				t.Fatal(err)
			}
			if ex, err := ExplainQuery(s, StdDev, sel, Options{}); err != nil || ex.Plan != PlanFactored {
				t.Fatalf("stddev on %s: plan %+v, %v; want factored", s.Method(), ex, err)
			}
			if math.Abs(got-want) > 1e-6*math.Max(math.Abs(want), 1) {
				t.Errorf("%s trial %d: factored stddev %v != naive %v",
					s.Method(), trial, got, want)
			}
		}
	}
}

// TestRowProbesOnlySelectedRows pins the row-indexed delta access pattern:
// an aggregate over r distinct rows probes exactly r per-row delta buckets
// — independent of the matrix height and of how many deltas the table
// holds — and a repeat of the same query adds the same count again.
func TestRowProbesOnlySelectedRows(t *testing.T) {
	x := testMatrix()
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	n, m := s.Dims()
	rows := []int{3, 9, 4, 9, 20} // 4 distinct, one duplicated
	sel := Selection{Rows: rows, Cols: All(m)}
	if n <= 20 {
		t.Fatalf("matrix too short for the fixed selection: n=%d", n)
	}
	before := s.RowProbes()
	if _, err := Evaluate(s, Sum, sel); err != nil {
		t.Fatal(err)
	}
	if got := s.RowProbes() - before; got != 4 {
		t.Errorf("Sum over 4 distinct rows probed %d buckets, want 4", got)
	}
	before = s.RowProbes()
	if _, err := Evaluate(s, StdDev, sel); err != nil {
		t.Fatal(err)
	}
	if got := s.RowProbes() - before; got != 4 {
		t.Errorf("StdDev over 4 distinct rows probed %d buckets, want 4", got)
	}
}
