package query

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// The projected engine skips a U row whose cells cannot move the running
// min/max (evalWorker.cannotWin). These tests hold the skip to the bits of
// the reconstruction it avoids, on stores built to hold what the rule could
// get wrong.

// pruneMatrix is tall enough that workers {3, 8} really run 3 and 8
// goroutines (evalWorkers), and holds the phone generator's all-zero rows.
func pruneMatrix() *linalg.Matrix {
	cfg := dataset.DefaultPhoneConfig(2000)
	cfg.M = 40
	return dataset.GeneratePhone(cfg)
}

// pruneSpikes are cells planted above and below everything else, though not
// so far that a component absorbs them, so the stored deltas that repair
// them carry both extrema — in rows where a worker already has a running
// extremum to compare against.
var pruneSpikes = []struct {
	row, col int
	scale    float64
}{{667, 11, 1.5}, {1333, 30, -1.4}, {1995, 2, 1.6}, {1100, 7, -1.6}}

// pruneStores builds the stores TestPrunedExtremaMatchNaive and
// TestMinMaxPartialBytesInvariant run on.
func pruneStores(t *testing.T) map[string]store.Store {
	t.Helper()
	x := pruneMatrix()
	n, m := x.Dims()
	out := make(map[string]store.Store)

	plain, err := svd.Compress(matio.NewMem(x), 5)
	if err != nil {
		t.Fatal(err)
	}
	out["svd"] = core.Plain(plain)

	// SVDD whose deltas carry the extrema.
	xs := x.Clone()
	peak := xs.MaxAbs()
	for _, sp := range pruneSpikes {
		xs.Set(sp.row, sp.col, sp.scale*peak)
	}
	spiked, err := core.Compress(matio.NewMem(xs), core.Options{Budget: 0.15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	deltaAt := make(map[[2]int]float64)
	spiked.Deltas(func(i, j int, d float64) { deltaAt[[2]int{i, j}] = d })
	for _, sp := range pruneSpikes {
		if _, ok := deltaAt[[2]int{sp.row, sp.col}]; !ok {
			t.Fatalf("spike (%d, %d) is not a stored delta", sp.row, sp.col)
		}
	}
	out["svdd-spikes"] = spiked

	// §6.2 zero rows, lifted data: every min is an exact 0 of a flagged row.
	xz := x.Clone()
	var zero int
	for i := 0; i < n; i++ {
		row := xz.Row(i)
		if linalg.Norm2(row) == 0 {
			zero++
			continue
		}
		for j := range row {
			row[j] += 100
		}
	}
	if zero < 3 {
		t.Fatalf("%d all-zero rows, want a few", zero)
	}
	flagged, err := core.Compress(matio.NewMem(xz), core.Options{Budget: 0.15, Workers: 1, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	out["zero-rows"] = flagged

	// FoldIn'd rows: new rows past the compressed ones, their worst cells
	// pinned by deltas.
	folded, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 40; r++ {
		row := append([]float64(nil), x.Row(r*37)...)
		for j := range row {
			row[j] *= 3
		}
		row[r%m] = float64(r%2*2-1) * 50 * peak
		if _, err := folded.FoldIn(row, 3); err != nil {
			t.Fatal(err)
		}
	}
	out["foldin"] = folded

	out["zeros"] = zeroCellStore(t, n, m)
	out["nan-delta"] = nanDeltaStore(t, spiked)
	out["overflow"] = overflowStore(t, n, m)
	return out
}

// zeroCellStore is a plain-SVD store whose rows cycle through all-zero U
// rows, all-(−0) U rows, all-negative and all-positive cells, so the max
// over the first three kinds and the min over the others are exact zeros,
// tied across many cells. (A factor store's cell is never −0: Dot's lanes
// start at +0.)
func zeroCellStore(t *testing.T, n, m int) *core.Store {
	t.Helper()
	v := linalg.NewMatrix(m, 2)
	for j := 0; j < m; j++ {
		v.Set(j, 0, 1+float64(j)/float64(m))
		v.Set(j, 1, 0.1*math.Sin(float64(j)))
	}
	rng := rand.New(rand.NewSource(5))
	u := linalg.NewMatrix(n, 2)
	negZero := math.Copysign(0, -1)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 1:
			u.Set(i, 0, negZero)
			u.Set(i, 1, negZero)
		case 2:
			u.Set(i, 0, -1-rng.Float64())
			u.Set(i, 1, rng.NormFloat64())
		case 3:
			u.Set(i, 0, 1+rng.Float64())
			u.Set(i, 1, rng.NormFloat64())
		}
	}
	s, err := svd.New(&svd.Factors{Rows: n, Cols: m, Sigma: []float64{2, 1}, V: v}, 2, matio.NewMem(u))
	if err != nil {
		t.Fatal(err)
	}
	return core.Plain(s)
}

// overflowStore is a plain-SVD store with σ at the top of the float64
// range. On every third row σ·u reaches 1e308, where the interval bound
// overflows and some cells do; the other rows stay finite. Rows 0 and 4 of
// every twelve scale to σ·u = ±Inf in the first factor, so their cells are
// +Inf and −Inf; rows 11 and 6 pair an infinite first factor with the
// opposite infinity in the second, so a cell is NaN wherever those products
// meet. A bound that overflows to ±Inf must never let such a row be
// skipped, although an Inf running extremum is ≥ (≤) it: the no-neg
// selection puts row 11's NaNs alone behind a +Inf max, no-pos row 6's
// behind a −Inf min.
func overflowStore(t *testing.T, n, m int) *core.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	v := linalg.NewMatrix(m, 3)
	for j := 0; j < m; j++ {
		v.Set(j, 0, 0.5+0.5*rng.Float64())
		v.Set(j, 1, 2*rng.Float64()-1)
		v.Set(j, 2, 2*rng.Float64()-1)
	}
	u := linalg.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		scale := 1e-305
		if i%3 == 0 {
			scale = 1
		}
		for c := 0; c < 3; c++ {
			u.Set(i, c, scale*(2*rng.Float64()-1))
		}
		switch i % 12 {
		case 0:
			u.Set(i, 0, 2)
		case 4:
			u.Set(i, 0, -2)
		case 11:
			u.Set(i, 0, 2)
			u.Set(i, 1, -2)
		case 6:
			u.Set(i, 0, -2)
			u.Set(i, 1, 2)
		}
	}
	s, err := svd.New(&svd.Factors{Rows: n, Cols: m, Sigma: []float64{1e308, 1e308, 1}, V: v}, 3, matio.NewMem(u))
	if err != nil {
		t.Fatal(err)
	}
	return core.Plain(s)
}

// nanDeltaStore re-reads s with one of its small deltas, in a late row,
// replaced by NaN — a value no compression stores. The .sqz bytes are
// re-framed as a v1 (unchecksummed) container, so the planted bits load.
func nanDeltaStore(t *testing.T, s *core.Store) *core.Store {
	t.Helper()
	n, m := s.Dims()
	row, col, best := -1, -1, math.Inf(1)
	s.Deltas(func(i, j int, d float64) {
		if i > n/2 && i%7 == 3 && math.Abs(d) < best {
			row, col, best = i, j, math.Abs(d)
		}
	})
	if row < 0 {
		t.Fatal("no delta to replace")
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	const header = 16
	var body []byte
	for p := header; ; {
		size := int(binary.LittleEndian.Uint32(b[p:]))
		if size == 0 {
			break
		}
		body = append(body, b[p+4:p+4+size]...)
		p += 8 + size
	}
	var d float64
	s.Deltas(func(i, j int, v float64) {
		if i == row && j == col {
			d = v
		}
	})
	pat := binary.LittleEndian.AppendUint64(nil, uint64(row)*uint64(m)+uint64(col))
	pat = binary.LittleEndian.AppendUint64(pat, math.Float64bits(d))
	at := bytes.Index(body, pat)
	if at < 0 || bytes.Contains(body[at+1:], pat) {
		t.Fatalf("delta (%d, %d) not found exactly once in the payload", row, col)
	}
	binary.LittleEndian.PutUint64(body[at+8:], math.Float64bits(math.NaN()))
	hdr := append([]byte(nil), b[:header]...)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	got, err := store.Read(bytes.NewReader(append(hdr, body...)))
	if err != nil {
		t.Fatal(err)
	}
	cs := got.(*core.Store)
	if c, err := cs.Cell(row, col); err != nil || !math.IsNaN(c) {
		t.Fatalf("cell (%d, %d) = %v, %v after planting a NaN delta", row, col, c, err)
	}
	return cs
}

// pruneSelections are full, narrow, duplicated, descending and random
// selections, plus no-pos and no-neg: rows filtered mod 4, which make the
// zero store's extrema exact zeros and hold the overflow store's NaN rows
// apart.
func pruneSelections(n, m int) map[string]Selection {
	rng := rand.New(rand.NewSource(32))
	dup := append(append(seq(0, n/2), seq(n/4, n/4+100)...), seq(n-60, n)...)
	desc := make([]int, 0, n)
	for i := n - 1; i >= 0; i -= 2 {
		desc = append(desc, i)
	}
	random := RandomSelection(rng, n, m, 0.3)
	random.Rows = append(random.Rows, random.Rows[3], random.Rows[len(random.Rows)/2], random.Rows[3])
	var noPos, noNeg []int
	for i := 0; i < n; i++ {
		if i%4 != 3 {
			noPos = append(noPos, i)
		}
		if i%4 != 2 {
			noNeg = append(noNeg, i)
		}
	}
	return map[string]Selection{
		"full":       {Rows: All(n), Cols: All(m)},
		"narrow":     {Rows: All(n), Cols: []int{2, 17, m - 1}},
		"duplicated": {Rows: dup, Cols: []int{1, 1, 5, m - 1, 5, 3, 30, 11, 7}},
		"descending": {Rows: desc, Cols: seq(2, m-3)},
		"random":     random,
		"no-pos":     {Rows: noPos, Cols: All(m)},
		"no-neg":     {Rows: noNeg, Cols: append(All(m), 0, 0)},
	}
}

// naiveRecon is every row of s through store.Row: the reconstruction the
// naive reference aggregates.
func naiveRecon(t *testing.T, s store.Store) *linalg.Matrix {
	t.Helper()
	n, m := s.Dims()
	x := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		if _, err := s.Row(i, x.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

// sameValue is bit equality, except that any NaN matches any NaN: IEEE 754
// leaves a NaN's payload to operand order.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestPrunedExtremaMatchNaive holds min and max, with the skip, to the
// naive EvaluateMatrix over store.Row bit for bit — lone calls and
// EvaluateBatch with its shared prefetch, at workers {1, 3, 8} — on plain
// SVD, SVDD whose deltas carry the extrema, §6.2 zero rows, FoldIn'd rows,
// exact-zero ties, a NaN delta and a σ whose bound overflows.
func TestPrunedExtremaMatchNaive(t *testing.T) {
	for name, s := range pruneStores(t) {
		recon := naiveRecon(t, s)
		n, m := s.Dims()
		sels := pruneSelections(n, m)
		var items []BatchItem
		var want []float64
		for _, sel := range sels {
			for _, agg := range []Aggregate{Min, Max} {
				w, err := EvaluateMatrix(recon, agg, sel)
				if err != nil {
					t.Fatal(err)
				}
				items = append(items, BatchItem{Agg: agg, Sel: sel})
				want = append(want, w)
			}
		}
		for _, workers := range []int{1, 3, 8} {
			opts := Options{Workers: workers}
			batch, err := EvaluateBatch(s, items, opts)
			if err != nil {
				t.Fatal(err)
			}
			for idx, it := range items {
				got, err := EvaluateOpts(s, it.Agg, it.Sel, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !sameValue(got, want[idx]) || batch[idx].Err != nil || !sameValue(batch[idx].Value, want[idx]) {
					t.Errorf("%s item %d %v/w%d: lone %v (%#x), batch %v (%v), naive %v (%#x)",
						name, idx, it.Agg, workers, got, math.Float64bits(got),
						batch[idx].Value, batch[idx].Err, want[idx], math.Float64bits(want[idx]))
				}
			}
		}
	}
}

// sliceStore is rows [lo, hi) of s as a shard store.
func sliceStore(t *testing.T, s store.Store, lo, hi int) store.Store {
	t.Helper()
	out, err := s.(*core.Store).SliceRows(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMinMaxPartialBytesInvariant pins what a min/max Partial carries: the
// count and its own extremum (the other is the empty ±Inf fold), so its
// bytes are the same at workers {1, 3, 8} although each worker skips
// different rows; and two shards' partials of a SplitSelection merge to the
// single-node bits.
func TestMinMaxPartialBytesInvariant(t *testing.T) {
	for name, s := range pruneStores(t) {
		n, m := s.Dims()
		ranges := []RowRange{{Lo: 0, Hi: n / 2}, {Lo: n / 2, Hi: -1}}
		shards := []store.Store{sliceStore(t, s, 0, n/2), sliceStore(t, s, n/2, n)}
		for selName, sel := range pruneSelections(n, m) {
			frags, err := SplitSelection(sel, ranges)
			if err != nil {
				t.Fatal(err)
			}
			for _, agg := range []Aggregate{Min, Max} {
				var ref []byte
				for _, workers := range []int{1, 3, 8} {
					p, err := EvaluatePartial(s, agg, sel, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if (agg == Max && p.Min != math.Inf(1)) || (agg == Min && p.Max != math.Inf(-1)) {
						t.Errorf("%s/%s/%v/w%d: partial carries the other extremum: min %v max %v",
							name, selName, agg, workers, p.Min, p.Max)
					}
					b, err := p.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = b
					} else if !bytes.Equal(b, ref) {
						t.Errorf("%s/%s/%v: partial bytes at w%d differ from w1", name, selName, agg, workers)
					}
				}
				single, err := EvaluateOpts(s, agg, sel, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				var parts []*Partial
				for sh, frag := range frags {
					if len(frag.Rows) == 0 {
						continue
					}
					p, err := EvaluatePartial(shards[sh], agg, frag, Options{Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, p)
				}
				merged, err := MergePartials(agg, parts)
				if err != nil {
					t.Fatal(err)
				}
				if !sameValue(merged, single) {
					t.Errorf("%s/%s/%v: two shards merge to %v, single node %v", name, selName, agg, merged, single)
				}
			}
		}
	}
}
