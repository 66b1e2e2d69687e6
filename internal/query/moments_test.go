package query

import (
	"math"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/exact"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

// momentStores are the three factored stores the staged moments must not
// be able to tell from a per-term fold: plain SVD, SVDD, and SVDD with a
// FoldIn'd last row whose U entries exceed 1 (the row the stage hands to
// Sum.Add term by term).
func momentStores(t *testing.T) map[string]*core.Store {
	t.Helper()
	cfg := dataset.DefaultPhoneConfig(1100)
	cfg.M = 48
	x := dataset.GeneratePhone(cfg)
	sv, err := svd.Compress(matio.NewMem(x), 6)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*core.Store{"svd": core.Plain(sv)}
	for _, name := range []string{"svdd", "svdd-foldin"} {
		if out[name], err = core.Compress(matio.NewMem(x), core.Options{Budget: 0.15}); err != nil {
			t.Fatal(err)
		}
	}
	folded := out["svdd-foldin"]
	row := append([]float64(nil), x.Row(7)...)
	for j := range row {
		row[j] *= 1e4
	}
	idx, err := folded.FoldIn(row, 3)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, folded.K())
	if err := folded.Base().URow(idx, u); err != nil {
		t.Fatal(err)
	}
	big := false
	for _, x := range u {
		big = big || math.Abs(x) > 1
	}
	if !big {
		t.Fatalf("FoldIn'd U row %v has no entry beyond 1", u)
	}
	return out
}

// perTermMoments is the fold uMoments.add replaced: one exact.Sum.Add per
// component and per upper-triangle product of each factor row, a zero
// entry's products skipped.
func perTermMoments(t *testing.T, row func(i int, dst []float64) error, idx []int, k int, wantSq bool) (acc, g []exact.Sum) {
	t.Helper()
	acc = make([]exact.Sum, k)
	if wantSq {
		g = make([]exact.Sum, k*k)
	}
	r := make([]float64, k)
	for _, i := range idx {
		if err := row(i, r); err != nil {
			t.Fatal(err)
		}
		for m, x := range r {
			acc[m].Add(x)
		}
		for a := 0; wantSq && a < k; a++ {
			if r[a] == 0 {
				continue
			}
			for b := a; b < k; b++ {
				g[a*k+b].Add(r[a] * r[b])
			}
		}
	}
	return acc, g
}

func sameRegisters(a, b []exact.Sum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

// TestStagedMomentsMatchPerTermFold: selections of 1 023, 1 024 and 1 025
// rows (one short of, exactly at and one past the stage's flush interval)
// and a multiset long enough to fan out to every worker, ending on the
// FoldIn'd row where the store has one, evaluated at workers {1, 3, 8}
// lone, batched and as partials merged from one and from three
// fragments. Every partial's row and column registers equal the per-term
// fold's, and every sum/avg/stddev is bit-identical to the value of those
// registers.
func TestStagedMomentsMatchPerTermFold(t *testing.T) {
	for name, s := range momentStores(t) {
		n, _ := s.Dims()
		k := s.K()
		v := s.Base().V()
		cols := append(seq(3, 40), 5, 5, 47)
		sizes := []int{1023, 1024, 1025, 8*minWorkerWork/k + 1025}
		for _, size := range sizes {
			sel := Selection{Cols: cols}
			for len(sel.Rows) < size {
				sel.Rows = append(sel.Rows, seq(max(0, n-(size-len(sel.Rows))), n)...)
			}
			if sel.Rows[len(sel.Rows)-1] != n-1 {
				t.Fatalf("selection does not end on the last row")
			}
			frags := splitGlobal(sel, []int{0, n / 3, n - 1})
			for _, agg := range []Aggregate{Sum, Avg, StdDev} {
				wantSq := agg == StdDev
				rowAcc, rowG := perTermMoments(t, s.Base().URow, sel.Rows, k, wantSq)
				colAcc, colG := perTermMoments(t, func(j int, dst []float64) error {
					copy(dst, v.Row(j))
					return nil
				}, cols, k, wantSq)
				ref, err := EvaluatePartial(s, agg, sel, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				ref.RowSum, ref.RowG, ref.ColSum, ref.ColG = rowAcc, rowG, colAcc, colG
				want, err := MergePartials(agg, []*Partial{ref})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3, 8} {
					opts := Options{Workers: workers}
					check := func(path string, got float64, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s rows=%d %v w%d %s: %v", name, size, agg, workers, path, err)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s rows=%d %v w%d %s: %v, per-term fold gives %v", name, size, agg, workers, path, got, want)
						}
					}
					got, err := EvaluateOpts(s, agg, sel, opts)
					check("lone", got, err)
					res, err := EvaluateBatch(s, []BatchItem{{Agg: Min, Sel: sel}, {Agg: agg, Sel: sel}}, opts)
					if err == nil {
						got, err = res[1].Value, res[1].Err
					}
					check("batch", got, err)
					p, err := EvaluatePartial(s, agg, sel, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !sameRegisters(p.RowSum, rowAcc) || !sameRegisters(p.RowG, rowG) ||
						!sameRegisters(p.ColSum, colAcc) || !sameRegisters(p.ColG, colG) {
						t.Errorf("%s rows=%d %v w%d: partial registers differ from the per-term fold", name, size, agg, workers)
					}
					got, err = MergePartials(agg, []*Partial{p})
					check("partial", got, err)
					var parts []*Partial
					for _, f := range frags {
						if len(f.Rows) == 0 {
							continue
						}
						fp, err := EvaluatePartial(s, agg, f, opts)
						if err != nil {
							t.Fatal(err)
						}
						parts = append(parts, fp)
					}
					got, err = MergePartials(agg, parts)
					check("merged fragments", got, err)
				}
			}
		}
	}
}
