package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/exact"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// splitGlobal partitions sel by contiguous global row ranges with
// boundaries bounds (ascending), keeping GLOBAL row indices — the
// fragments address the same unsliced store, which lets these tests pin
// merge semantics without shard stores. Row order (and duplicates) are
// preserved within each fragment, exactly as SplitSelection does.
func splitGlobal(sel Selection, bounds []int) []Selection {
	out := make([]Selection, len(bounds))
	for _, i := range sel.Rows {
		s := len(bounds) - 1
		for ri, b := range bounds {
			if i < b {
				s = ri - 1
				break
			}
		}
		out[s].Rows = append(out[s].Rows, i)
	}
	for s := range out {
		if len(out[s].Rows) > 0 {
			out[s].Cols = sel.Cols
		}
	}
	return out
}

// TestMergePartialsMatchesSingleNode is the heart of the distributed
// correctness story: for every store family, every aggregate, every shard
// count in {1,2,4} and every worker count in {1,3,8}, evaluating the
// selection split into fragments and gathering with MergePartials is
// bit-identical to a single-node EvaluateOpts — regardless of the worker
// count either side used.
func TestMergePartialsMatchesSingleNode(t *testing.T) {
	stores := engineStores(t)
	for name, s := range stores {
		n, m := s.Dims()
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 3; trial++ {
			sel := RandomSelection(rng, n, m, 0.05+0.2*rng.Float64())
			// Mix in duplicates to exercise multiset weighting.
			if trial == 2 {
				sel.Rows = append(sel.Rows, sel.Rows[0], sel.Rows[len(sel.Rows)/2])
				sel.Cols = append(sel.Cols, sel.Cols[0])
			}
			for _, agg := range allAggregates {
				want, err := EvaluateOpts(s, agg, sel, Options{Workers: 1})
				if err != nil {
					t.Fatalf("%s/%v: single-node: %v", name, agg, err)
				}
				for _, shards := range []int{1, 2, 4} {
					bounds := make([]int, shards)
					for b := 1; b < shards; b++ {
						bounds[b] = b * n / shards
					}
					frags := splitGlobal(sel, bounds)
					for _, workers := range []int{1, 3, 8} {
						parts := make([]*Partial, 0, shards)
						for _, frag := range frags {
							if len(frag.Rows) == 0 {
								continue
							}
							p, err := EvaluatePartial(s, agg, frag, Options{Workers: workers})
							if err != nil {
								t.Fatalf("%s/%v shards=%d workers=%d: partial: %v", name, agg, shards, workers, err)
							}
							parts = append(parts, p)
						}
						// Merge in reverse order: exact gather is order-free.
						for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
							parts[i], parts[j] = parts[j], parts[i]
						}
						got, err := MergePartials(agg, parts)
						if err != nil {
							t.Fatalf("%s/%v shards=%d workers=%d: merge: %v", name, agg, shards, workers, err)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s/%v shards=%d workers=%d: merged %v (bits %#x) != single-node %v (bits %#x)",
								name, agg, shards, workers, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// With exact accumulators the engine result is invariant under the worker
// count — a strictly stronger property than the old "deterministic for a
// fixed count".
func TestWorkerCountInvariance(t *testing.T) {
	stores := engineStores(t)
	rng := rand.New(rand.NewSource(23))
	for name, s := range stores {
		n, m := s.Dims()
		sel := RandomSelection(rng, n, m, 0.2)
		for _, agg := range allAggregates {
			ref, err := EvaluateOpts(s, agg, sel, Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, agg, err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, err := EvaluateOpts(s, agg, sel, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", name, agg, workers, err)
				}
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("%s/%v: workers=%d gives %v, workers=1 gives %v", name, agg, workers, got, ref)
				}
			}
		}
	}
}

func TestPartialWireRoundTrip(t *testing.T) {
	stores := engineStores(t)
	rng := rand.New(rand.NewSource(31))
	for name, s := range stores {
		n, m := s.Dims()
		sel := RandomSelection(rng, n, m, 0.15)
		for _, agg := range allAggregates {
			p, err := EvaluatePartial(s, agg, sel, Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, agg, err)
			}
			enc, err := p.MarshalBinary()
			if err != nil {
				t.Fatalf("%s/%v: marshal: %v", name, agg, err)
			}
			var d Partial
			if err := d.UnmarshalBinary(enc); err != nil {
				t.Fatalf("%s/%v: unmarshal: %v", name, agg, err)
			}
			want, err := MergePartials(agg, []*Partial{p})
			if err != nil {
				t.Fatalf("%s/%v: merge original: %v", name, agg, err)
			}
			got, err := MergePartials(agg, []*Partial{&d})
			if err != nil {
				t.Fatalf("%s/%v: merge decoded: %v", name, agg, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s/%v: decoded merge %v != %v", name, agg, got, want)
			}
			// Truncations and corrupted headers must error, never panic.
			for _, cut := range []int{0, 1, 4, len(enc) / 2, len(enc) - 1} {
				var bad Partial
				if err := bad.UnmarshalBinary(enc[:cut]); err == nil {
					t.Fatalf("%s/%v: truncation at %d accepted", name, agg, cut)
				}
			}
			mangled := append([]byte(nil), enc...)
			mangled[0] ^= 0xff
			var bad Partial
			if err := bad.UnmarshalBinary(mangled); err == nil {
				t.Fatalf("%s/%v: bad magic accepted", name, agg)
			}
		}
	}
}

func TestSplitSelection(t *testing.T) {
	sel := Selection{Rows: []int{0, 5, 2, 5, 9, 3}, Cols: []int{1, 2, 1}}
	frags, err := SplitSelection(sel, []RowRange{{Lo: 0, Hi: 4}, {Lo: 4, Hi: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := frags[0].Rows; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("shard 0 rows = %v, want [0 2 3] (order preserved)", got)
	}
	if got := frags[1].Rows; len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 5 {
		t.Fatalf("shard 1 rows = %v, want [1 1 5] (local, duplicates kept)", got)
	}
	for s, frag := range frags {
		if len(frag.Cols) != 3 {
			t.Fatalf("shard %d cols = %v, want full column list", s, frag.Cols)
		}
	}
	// Uncovered row errors with the out-of-range class.
	_, err = SplitSelection(Selection{Rows: []int{7}, Cols: []int{0}}, []RowRange{{Lo: 0, Hi: 4}})
	if !errors.Is(err, seqerr.ErrOutOfRange) {
		t.Fatalf("uncovered row: got %v, want ErrOutOfRange", err)
	}
	// Empty shards get empty fragments.
	frags, err = SplitSelection(Selection{Rows: []int{1}, Cols: []int{0}}, []RowRange{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags[1].Rows) != 0 || frags[1].Cols != nil {
		t.Fatalf("empty shard fragment not empty: %+v", frags[1])
	}
}

func TestMergePartialsShapeChecks(t *testing.T) {
	stores := engineStores(t)
	s := stores["svdd"]
	n, m := s.Dims()
	sel := Selection{Rows: All(n), Cols: All(m)}
	pf, err := EvaluatePartial(s, Sum, sel, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := EvaluatePartial(s, Min, sel, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergePartials(Sum, []*Partial{pf, pc}); err == nil {
		t.Error("mixed shapes accepted")
	}
	if _, err := MergePartials(Min, []*Partial{pc, pf}); err == nil {
		t.Error("mixed shapes accepted (cells first)")
	}
	if _, err := MergePartials(Sum, nil); !errors.Is(err, ErrEmptySelection) {
		t.Errorf("empty merge: got %v, want ErrEmptySelection", err)
	}
	// Shards from different factorizations must be rejected.
	other, err := EvaluatePartial(stores["svd"], Sum, sel, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergePartials(Sum, []*Partial{pf, other}); err == nil {
		t.Error("partials from different factorizations accepted")
	}
	// Aggregate mismatch.
	if _, err := MergePartials(Avg, []*Partial{pf}); err == nil {
		t.Error("aggregate mismatch accepted")
	}
	// A malformed partial errors wherever it sits — the first (or only)
	// one used to be indexed unchecked.
	sums := func(n int) []exact.Sum { return make([]exact.Sum, n) }
	malformed := map[string]*Partial{
		"no moments":     {Agg: Sum, Factored: true, K: 3, Sigma: []float64{1, 2, 3}},
		"short ColSum":   {Agg: Sum, Factored: true, K: 3, Sigma: []float64{1, 2, 3}, RowSum: sums(3), ColSum: sums(2)},
		"short Sigma":    {Agg: Sum, Factored: true, K: 3, Sigma: []float64{1}, RowSum: sums(3), ColSum: sums(3)},
		"negative K":     {Agg: Sum, Factored: true, K: -1},
		"short RowG":     {Agg: StdDev, Factored: true, WantSq: true, K: 2, Sigma: []float64{1, 2}, RowSum: sums(2), ColSum: sums(2), RowG: sums(3), ColG: sums(4)},
		"stddev sans Sq": {Agg: StdDev, Factored: true, K: 2, Sigma: []float64{1, 2}, RowSum: sums(2), ColSum: sums(2)},
		"factored min":   {Agg: Min, Factored: true, K: 1, Sigma: []float64{1}, RowSum: sums(1), ColSum: sums(1)},
	}
	for name, bad := range malformed {
		if _, err := MergePartials(bad.Agg, []*Partial{bad}); err == nil {
			t.Errorf("malformed partial (%s) accepted alone", name)
		}
	}
	late := *pf
	late.RowSum = late.RowSum[:len(late.RowSum)-1]
	if _, err := MergePartials(Sum, []*Partial{pf, &late}); err == nil {
		t.Error("malformed partial accepted after a sound one")
	}
}

// partialSeedFrames encodes one valid frame of each wire shape — cells,
// factored, factored with second moments — from the SVD and SVDD stores
// TestPartialWireRoundTrip sweeps.
func partialSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	x := testMatrix()
	sv, err := svd.Compress(matio.NewMem(x), 5)
	if err != nil {
		tb.Fatal(err)
	}
	sd, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15})
	if err != nil {
		tb.Fatal(err)
	}
	n, m := sv.Dims()
	sel := RandomSelection(rand.New(rand.NewSource(31)), n, m, 0.15)
	var frames [][]byte
	for _, s := range []store.Store{core.Plain(sv), sd} {
		for _, agg := range []Aggregate{Min, Sum, StdDev} {
			p, err := EvaluatePartial(s, agg, sel, Options{Workers: 1})
			if err != nil {
				tb.Fatal(err)
			}
			enc, err := p.MarshalBinary()
			if err != nil {
				tb.Fatal(err)
			}
			frames = append(frames, enc)
		}
	}
	return frames
}

// TestPartialUnmarshalHostileFrames: the header fixes the frame length, so
// a frame of any other length is refused before anything is allocated.
func TestPartialUnmarshalHostileFrames(t *testing.T) {
	// k = 1024 with second moments, body cut right after σ: ~570 KB on the
	// wire that used to allocate 2·k²·288 B = 576 MB before noticing.
	const k = 1024
	frame := append([]byte(partialMagic), byte(StdDev), 1|2)
	frame = binary.LittleEndian.AppendUint64(frame, 1)
	frame = binary.LittleEndian.AppendUint32(frame, k)
	frame = append(frame, make([]byte, 2*k*sumEncSize+k*8)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var p Partial
	err := p.UnmarshalBinary(frame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated k=1024 frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting a %d-byte truncated frame allocated %d bytes", len(frame), grew)
	}

	for fi, enc := range partialSeedFrames(t) {
		var ok Partial
		if err := ok.UnmarshalBinary(enc); err != nil {
			t.Fatalf("frame %d: valid frame refused: %v", fi, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			var bad Partial
			if err := bad.UnmarshalBinary(enc[:cut]); err == nil {
				t.Fatalf("frame %d: prefix of %d/%d bytes accepted", fi, cut, len(enc))
			}
		}
		for _, extra := range []byte{0, 1, 0xff} {
			var bad Partial
			if err := bad.UnmarshalBinary(append(enc[:len(enc):len(enc)], extra)); err == nil {
				t.Fatalf("frame %d: one-byte extension %#x accepted", fi, extra)
			}
		}
	}
}

// FuzzPartialUnmarshal fuzzes the one decoder that parses bytes from
// another process: it must never panic, and whatever it accepts must
// re-encode to the identical frame (nothing in a frame is ignored).
func FuzzPartialUnmarshal(f *testing.F) {
	for _, enc := range partialSeedFrames(f) {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Partial
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoded frame differs from the %d-byte input", len(data))
		}
	})
}

// Batch partials stay bit-identical to independent EvaluatePartial calls.
func TestEvaluateBatchPartialMatchesIndependent(t *testing.T) {
	stores := engineStores(t)
	for _, name := range []string{"svd", "svdd"} {
		s := stores[name]
		n, m := s.Dims()
		rng := rand.New(rand.NewSource(41))
		items := make([]BatchItem, 0, 8)
		for i := 0; i < 8; i++ {
			items = append(items, BatchItem{
				Agg: allAggregates[i%len(allAggregates)],
				Sel: RandomSelection(rng, n, m, 0.1+0.3*rng.Float64()),
			})
		}
		batch, err := EvaluateBatchPartial(s, items, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for idx, r := range batch {
			if r.Err != nil {
				t.Fatalf("%s item %d: %v", name, idx, r.Err)
			}
			want, err := EvaluatePartial(s, items[idx].Agg, items[idx].Sel, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			g, err := MergePartials(items[idx].Agg, []*Partial{r.Partial})
			if err != nil {
				t.Fatal(err)
			}
			w, err := MergePartials(items[idx].Agg, []*Partial{want})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s item %d: batch partial %v != independent %v", name, idx, g, w)
			}
		}
	}
}
