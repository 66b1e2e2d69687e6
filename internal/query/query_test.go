package query

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/dct"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/metrics"
	"seqstore/internal/svd"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func testMatrix() *linalg.Matrix {
	cfg := dataset.DefaultPhoneConfig(60)
	cfg.M = 40
	return dataset.GeneratePhone(cfg)
}

func TestSelectionValidate(t *testing.T) {
	sel := Selection{Rows: []int{0, 1}, Cols: []int{2}}
	if err := sel.Validate(5, 5); err != nil {
		t.Errorf("valid selection rejected: %v", err)
	}
	if err := (Selection{}).Validate(5, 5); !errors.Is(err, ErrEmptySelection) {
		t.Error("empty selection accepted")
	}
	if err := (Selection{Rows: []int{9}, Cols: []int{0}}).Validate(5, 5); err == nil {
		t.Error("row out of range accepted")
	}
	if err := (Selection{Rows: []int{0}, Cols: []int{-1}}).Validate(5, 5); err == nil {
		t.Error("negative column accepted")
	}
}

func TestAggregateStrings(t *testing.T) {
	for _, a := range []Aggregate{Sum, Avg, Count, Min, Max, StdDev} {
		got, err := ParseAggregate(a.String())
		if err != nil || got != a {
			t.Errorf("round trip failed for %v", a)
		}
	}
	if _, err := ParseAggregate("median"); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestEvaluateMatrixKnownValues(t *testing.T) {
	x := linalg.FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	sel := Selection{Rows: []int{0, 1}, Cols: []int{0, 2}}
	cases := []struct {
		agg  Aggregate
		want float64
	}{
		{Sum, 1 + 3 + 4 + 6},
		{Avg, 14.0 / 4},
		{Count, 4},
		{Min, 1},
		{Max, 6},
		{StdDev, math.Sqrt((1+9+16+36)/4.0 - 3.5*3.5)},
	}
	for _, c := range cases {
		got, err := EvaluateMatrix(x, c.agg, sel)
		if err != nil {
			t.Fatalf("%v: %v", c.agg, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("%v = %v, want %v", c.agg, got, c.want)
		}
	}
}

func TestRandomSelectionCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sel := RandomSelection(rng, 100, 50, 0.10)
	frac := float64(sel.NumCells()) / (100.0 * 50.0)
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("selection covers %.3f of cells, want ≈0.10", frac)
	}
	if err := sel.Validate(100, 50); err != nil {
		t.Errorf("random selection invalid: %v", err)
	}
	// Distinctness.
	seen := map[int]bool{}
	for _, i := range sel.Rows {
		if seen[i] {
			t.Fatal("duplicate row in selection")
		}
		seen[i] = true
	}
}

func TestRandomSelectionTinyFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sel := RandomSelection(rng, 10, 10, 1e-9)
	if len(sel.Rows) != 1 || len(sel.Cols) != 1 {
		t.Errorf("tiny fraction should clamp to 1×1, got %d×%d", len(sel.Rows), len(sel.Cols))
	}
}

func TestFactoredMatchesNaiveSVD(t *testing.T) {
	x := testMatrix()
	sv, err := svd.Compress(matio.NewMem(x), 5)
	if err != nil {
		t.Fatal(err)
	}
	s := core.Plain(sv)
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 20; q++ {
		sel := RandomSelection(rng, x.Rows(), x.Cols(), 0.1)
		fast, err := Evaluate(s, Sum, sel)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := EvaluateNaive(s, Sum, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(fast, slow, 1e-6*math.Max(math.Abs(slow), 1)) {
			t.Fatalf("query %d: factored %v != naive %v", q, fast, slow)
		}
	}
}

func TestFactoredMatchesNaiveSVDD(t *testing.T) {
	x := testMatrix()
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 20; q++ {
		sel := RandomSelection(rng, x.Rows(), x.Cols(), 0.15)
		fast, err := Evaluate(s, Avg, sel)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := EvaluateNaive(s, Avg, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(fast, slow, 1e-6*math.Max(math.Abs(slow), 1)) {
			t.Fatalf("query %d: factored %v != naive %v", q, fast, slow)
		}
	}
}

func TestEvaluateDCTFallsBackToNaive(t *testing.T) {
	x := testMatrix()
	s, err := dct.Compress(matio.NewMem(x), 8)
	if err != nil {
		t.Fatal(err)
	}
	sel := Selection{Rows: []int{0, 5, 9}, Cols: []int{1, 2, 3}}
	got, err := Evaluate(s, Sum, sel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateNaive(s, Sum, sel)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fallback mismatch: %v vs %v", got, want)
	}
}

func TestEvaluateCount(t *testing.T) {
	x := testMatrix()
	sv, _ := svd.Compress(matio.NewMem(x), 3)
	s := core.Plain(sv)
	sel := Selection{Rows: []int{1, 2}, Cols: []int{0, 1, 2}}
	got, err := Evaluate(s, Count, sel)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("Count = %v, want 6", got)
	}
}

func TestEvaluateRejectsBadSelection(t *testing.T) {
	x := testMatrix()
	sv, _ := svd.Compress(matio.NewMem(x), 3)
	s := core.Plain(sv)
	if _, err := Evaluate(s, Sum, Selection{Rows: []int{9999}, Cols: []int{0}}); err == nil {
		t.Error("out-of-range selection accepted")
	}
	if _, err := Evaluate(s, Sum, Selection{}); err == nil {
		t.Error("empty selection accepted")
	}
}

func TestAggregateErrorSmallerThanCellError(t *testing.T) {
	// §5.2: errors cancel in aggregation, so Q_err for broad avg queries
	// should be far below the cell-level RMSPE.
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(300))
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var acc metrics.Accumulator
	row := make([]float64, x.Cols())
	for i := 0; i < x.Rows(); i++ {
		got, _ := s.Row(i, row)
		acc.AddRow(i, x.Row(i), got)
	}
	rmspe := acc.RMSPE()

	rng := rand.New(rand.NewSource(5))
	var qsum float64
	const nq = 30
	for q := 0; q < nq; q++ {
		sel := RandomSelection(rng, x.Rows(), x.Cols(), 0.10)
		truth, err := EvaluateMatrix(x, Avg, sel)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Evaluate(s, Avg, sel)
		if err != nil {
			t.Fatal(err)
		}
		qsum += metrics.QueryError(truth, est)
	}
	qerr := qsum / nq
	if qerr >= rmspe {
		t.Errorf("aggregate error %.4f not below cell RMSPE %.4f", qerr, rmspe)
	}
}

// Property: factored and naive sums agree for arbitrary selections.
func TestFactoredNaiveAgreementProperty(t *testing.T) {
	x := testMatrix()
	sv, err := svd.Compress(matio.NewMem(x), 4)
	if err != nil {
		t.Fatal(err)
	}
	sPlain := core.Plain(sv)
	sDelta, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sel := RandomSelection(rng, x.Rows(), x.Cols(), 0.02+0.3*rng.Float64())
		fast1, err1 := Evaluate(sPlain, Sum, sel)
		slow1, err2 := EvaluateNaive(sPlain, Sum, sel)
		if err1 != nil || err2 != nil {
			return false
		}
		if !almostEqual(fast1, slow1, 1e-6*math.Max(math.Abs(slow1), 1)) {
			return false
		}
		fast2, err3 := Evaluate(sDelta, Sum, sel)
		slow2, err4 := EvaluateNaive(sDelta, Sum, sel)
		if err3 != nil || err4 != nil {
			return false
		}
		return almostEqual(fast2, slow2, 1e-6*math.Max(math.Abs(slow2), 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
