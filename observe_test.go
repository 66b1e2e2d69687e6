package seqstore

import (
	"context"
	"testing"
)

// TestWithCostAttributesAggregates: a ledger attached via WithCost picks up
// the disk accesses of a facade aggregate, and the traced evaluation
// returns the same value as the untraced one. The store is 100 rows, so
// the sum reads the 36 past the first 64-row block of the moment index.
func TestWithCostAttributesAggregates(t *testing.T) {
	x := GeneratePhone(100)
	st, err := Compress(x, Options{Budget: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	_, m := x.Dims()
	rows, cols := seqIdx(0, 100), seqIdx(0, m)

	// Same worker count on both sides: Sum's summation order is only
	// deterministic for a fixed count, and adaptive chunking parallelizes
	// even small selections.
	want, err := st.AggregateOpts(Sum, rows, cols, AggOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var led CostLedger
	ctx := WithCost(context.Background(), &led)
	got, err := st.AggregateContext(ctx, Sum, rows, cols, AggOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("traced aggregate %v != untraced %v", got, want)
	}
	cost := led.Snapshot()
	if cost.DiskAccesses == 0 || cost.RowsRead == 0 {
		t.Errorf("ledger empty after traced aggregate: %+v", cost)
	}
	if CostFrom(ctx) != &led {
		t.Error("CostFrom did not return the attached ledger")
	}
}

// TestCostFromUntraced: an untraced context yields a nil (but usable)
// ledger.
func TestCostFromUntraced(t *testing.T) {
	led := CostFrom(context.Background())
	if led != nil {
		t.Fatalf("expected nil ledger, got %+v", led)
	}
	led.AddRowsRead(1) // nil-safe no-op
	if s := led.Snapshot(); s.RowsRead != 0 {
		t.Errorf("nil ledger snapshot not zero: %+v", s)
	}
}

func seqIdx(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
