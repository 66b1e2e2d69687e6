package query

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"seqstore/internal/core"
	"seqstore/internal/matio"
)

// Metamorphic properties of the aggregate engine: relations that must hold
// between the answers of related queries, regardless of the data or the
// compression error.

func metamorphicStore(t *testing.T) *core.Store {
	t.Helper()
	x := testMatrix()
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Sum over a disjoint row partition equals the sum over the union.
func TestSumAdditiveOverRowPartition(t *testing.T) {
	s := metamorphicStore(t)
	n, m := s.Dims()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		all := rng.Perm(n)[:2+rng.Intn(n-2)]
		cut := 1 + rng.Intn(len(all)-1)
		cols := sampleDistinct(rng, m, 1+rng.Intn(m))

		whole, err := Evaluate(s, Sum, Selection{Rows: all, Cols: cols})
		if err != nil {
			return false
		}
		left, err := Evaluate(s, Sum, Selection{Rows: all[:cut], Cols: cols})
		if err != nil {
			return false
		}
		right, err := Evaluate(s, Sum, Selection{Rows: all[cut:], Cols: cols})
		if err != nil {
			return false
		}
		return math.Abs(whole-(left+right)) <= 1e-6*math.Max(math.Abs(whole), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Avg·Count = Sum for any selection.
func TestAvgTimesCountIsSum(t *testing.T) {
	s := metamorphicStore(t)
	n, m := s.Dims()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sel := RandomSelection(rng, n, m, 0.01+0.3*rng.Float64())
		sum, err := Evaluate(s, Sum, sel)
		if err != nil {
			return false
		}
		avg, err := Evaluate(s, Avg, sel)
		if err != nil {
			return false
		}
		cnt, err := Evaluate(s, Count, sel)
		if err != nil {
			return false
		}
		return math.Abs(avg*cnt-sum) <= 1e-6*math.Max(math.Abs(sum), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Min ≤ Avg ≤ Max, and StdDev ≥ 0, for any selection.
func TestOrderingInvariants(t *testing.T) {
	s := metamorphicStore(t)
	n, m := s.Dims()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sel := RandomSelection(rng, n, m, 0.01+0.2*rng.Float64())
		lo, err := Evaluate(s, Min, sel)
		if err != nil {
			return false
		}
		av, err := Evaluate(s, Avg, sel)
		if err != nil {
			return false
		}
		hi, err := Evaluate(s, Max, sel)
		if err != nil {
			return false
		}
		sd, err := Evaluate(s, StdDev, sel)
		if err != nil {
			return false
		}
		const eps = 1e-9
		return lo <= av+eps && av <= hi+eps && sd >= -eps && sd <= (hi-lo)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A single-cell selection's aggregates all equal the cell value.
func TestSingletonSelection(t *testing.T) {
	s := metamorphicStore(t)
	n, m := s.Dims()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(n), rng.Intn(m)
		sel := Selection{Rows: []int{i}, Cols: []int{j}}
		cell, err := s.Cell(i, j)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Aggregate{Sum, Avg, Min, Max} {
			v, err := Evaluate(s, agg, sel)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(v-cell) > 1e-9*math.Max(math.Abs(cell), 1) {
				t.Fatalf("%v of singleton (%d,%d) = %v, cell = %v", agg, i, j, v, cell)
			}
		}
		sd, _ := Evaluate(s, StdDev, sel)
		if sd != 0 {
			t.Fatalf("stddev of singleton = %v", sd)
		}
	}
}

// Duplicated columns in a selection scale the Sum accordingly (the engine
// treats the selection as a multiset, matching SQL semantics of listing a
// column twice).
func TestSumScalesWithDuplicateColumns(t *testing.T) {
	s := metamorphicStore(t)
	_, m := s.Dims()
	rows := []int{1, 3, 5}
	cols := []int{2, 4, m - 1}
	once, err := Evaluate(s, Sum, Selection{Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := Evaluate(s, Sum, Selection{Rows: rows, Cols: append(append([]int{}, cols...), cols...)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(doubled-2*once) > 1e-6*math.Max(math.Abs(once), 1) {
		t.Errorf("doubled selection sum %v != 2×%v", doubled, once)
	}
}

// ascendingLayers splits a row multiset into strictly ascending lists whose
// multiset union it is: layer ℓ holds, in ascending order, every row listed
// more than ℓ times. Each layer takes the plan digest's fast path.
func ascendingLayers(rows []int) [][]int {
	sorted := append([]int(nil), rows...)
	sort.Ints(sorted)
	var layers [][]int
	for a := 0; a < len(sorted); {
		b := a
		for b < len(sorted) && sorted[b] == sorted[a] {
			if b-a == len(layers) {
				layers = append(layers, nil)
			}
			layers[b-a] = append(layers[b-a], sorted[a])
			b++
		}
		a = b
	}
	return layers
}

// TestMultisetSelections: duplicated, descending and interleaved row and
// column lists take the plan digest's sorted-and-counted fallback. Every
// aggregate must come out bit-equal to the ascending fast path on the
// distinct rows times their multiplicities — the exact merge of one partial
// per ascending layer — and to itself under any reordering of the same
// multiset (the digest sorts; the exact moments do not care). Against
// folding the cells one by one, Min and Max are bit-equal too; Sum, Avg and
// StdDev are factored, so rounded once where a cell fold rounds per cell,
// and agree within the factored tolerance.
func TestMultisetSelections(t *testing.T) {
	plain := metamorphicStore(t)
	flagged, _, _, _ := zeroRowStore(t)
	n, m := plain.Dims()
	sels := map[string]Selection{
		"duplicated":  {Rows: []int{4, 4, 5, 6, 6, 6, 17, 17, 30, 31, 32, 33, 33}, Cols: []int{2, 9, 9, 11, m - 1, 2}},
		"descending":  {Rows: []int{n - 1, n - 2, n - 3, n - 4, 41, 40, 39, 17, 9, 8, 3, 0}, Cols: []int{m - 1, 20, 12, 5, 4}},
		"interleaved": {Rows: []int{10, 50, 11, 51, 12, 52, 13, 53, 14, 3, 10, 15, 16, 17, 18, 50}, Cols: []int{7, 1, 30, 7, 16, 1}},
		"everything":  {Rows: append(seq(0, n), seq(0, n)...), Cols: append(seq(0, m), m/2)},
	}
	for storeName, s := range map[string]*core.Store{"plain": plain, "zeroflags": flagged} {
		for name, sel := range sels {
			if _, ascending := buildRuns(nil, sel.Rows); ascending {
				t.Fatalf("%s: rows are ascending; the fallback would go untested", name)
			}
			layers := ascendingLayers(sel.Rows)
			for _, layer := range layers {
				if _, ascending := buildRuns(nil, layer); !ascending {
					t.Fatalf("%s: layer %v is not strictly ascending", name, layer)
				}
			}
			shuffled := Selection{Rows: append([]int(nil), sel.Rows...), Cols: append([]int(nil), sel.Cols...)}
			rng := rand.New(rand.NewSource(int64(len(name))))
			rng.Shuffle(len(shuffled.Rows), func(a, b int) { shuffled.Rows[a], shuffled.Rows[b] = shuffled.Rows[b], shuffled.Rows[a] })
			rng.Shuffle(len(shuffled.Cols), func(a, b int) { shuffled.Cols[a], shuffled.Cols[b] = shuffled.Cols[b], shuffled.Cols[a] })

			for _, agg := range []Aggregate{Sum, Avg, StdDev, Min, Max} {
				got, err := EvaluateOpts(s, agg, sel, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				var parts []*Partial
				for _, layer := range layers {
					p, err := EvaluatePartial(s, agg, Selection{Rows: layer, Cols: sel.Cols}, Options{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, p)
				}
				layered, err := MergePartials(agg, parts)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(layered) != math.Float64bits(got) {
					t.Errorf("%s/%s/%v: %v, merged ascending layers %v", storeName, name, agg, got, layered)
				}
				reordered, err := Evaluate(s, agg, shuffled)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(reordered) != math.Float64bits(got) {
					t.Errorf("%s/%s/%v: %v, reordered multiset %v", storeName, name, agg, got, reordered)
				}
				folded, err := EvaluateNaive(s, agg, sel)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-folded) > aggTolerance(agg, folded) {
					t.Errorf("%s/%s/%v: %v, cell fold %v", storeName, name, agg, got, folded)
				}
			}
		}
	}
}
