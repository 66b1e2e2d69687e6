package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSummarizeOrientsByBetter(t *testing.T) {
	parent := []float64{100, 110, 90, 100}
	change := []float64{120, 100, 120, 100} // wins, loses, wins, ties
	s := summarize(metric{Name: "ops_per_s", Better: "higher"}, parent, change)
	if s.wins != 2 || s.parent != 100 || s.change != 110 || s.shift != 0.1 {
		t.Fatalf("higher-is-better summary = %+v", s)
	}
	s = summarize(metric{Name: "primary_p50_ms", Better: "lower"}, parent, change)
	if s.wins != 1 || s.shift != -0.1 {
		t.Fatalf("lower-is-better summary = %+v", s)
	}
}

func TestVerdictIsTheNoGainRule(t *testing.T) {
	ops := metric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	p50 := metric{Name: "primary_p50_ms", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		m              metric
		parent, change []float64
		want           string
	}{
		// Tight runs, shifts inside the bound either way.
		{ops, []float64{100, 101, 99, 100, 100}, []float64{90, 91, 89, 90, 90}, "ok"},
		{p50, []float64{1, 1.01, 0.99, 1, 1}, []float64{1.2, 1.21, 1.19, 1.2, 1.2}, "ok"},
		// Worse by more than the bound, in each direction of better.
		{ops, []float64{100, 101, 99, 100, 100}, []float64{70, 71, 69, 70, 70}, "WORSE"},
		{p50, []float64{1, 1.01, 0.99, 1, 1}, []float64{1.3, 1.31, 1.29, 1.3, 1.3}, "WORSE"},
		// Better by more than the bound is never a breach.
		{p50, []float64{1, 1.01, 0.99, 1, 1}, []float64{0.5, 0.51, 0.49, 0.5, 0.5}, "ok"},
		// Either side spreading wider than the bound cannot be told apart,
		// unless every run of the change is better than every parent run.
		{ops, []float64{60, 140, 100, 80, 120}, []float64{100, 101, 99, 100, 100}, "unresolved"},
		{ops, []float64{100, 101, 99, 100, 100}, []float64{60, 140, 100, 80, 120}, "unresolved"},
		{ops, []float64{60, 100, 80, 70, 90}, []float64{150, 250, 200, 180, 220}, "ok"},
		// A zero median (an exact metric at 0) has no relative spread.
		{p50, []float64{0, 0, 0, 0, 0}, []float64{0, 0, 0, 0, 0}, "ok"},
	} {
		if got := summarize(c.m, c.parent, c.change).verdict(c.m.Bound); got != c.want {
			t.Errorf("%s %v → %v: verdict %q, want %q (%+v)", c.m.Name, c.parent, c.change, got, c.want,
				summarize(c.m, c.parent, c.change))
		}
	}
}

func TestAddrMod64ParsesNM(t *testing.T) {
	nm := `  5469a0 T seqstore/internal/core.(*Store).Cell
  4f8b60 T seqstore/internal/linalg.Axpy
  4f8d70 t seqstore/internal/linalg.AxpyRows
  6a1f00 D seqstore/internal/linalg.Dot
  4f8120 T seqstore/internal/linalg.DotRows.func1
         U seqstore/internal/pqueue.selectNth
garbage
`
	got := addrMod64(nm, []string{
		"seqstore/internal/core.(*Store).Cell",
		"seqstore/internal/linalg.Axpy",
		"seqstore/internal/linalg.AxpyRows",
		"seqstore/internal/linalg.Dot",
		"seqstore/internal/linalg.DotRows",
		"seqstore/internal/pqueue.selectNth",
	})
	// A data symbol, a closure of a wanted function and an undefined symbol
	// are not the function's code.
	want := map[string]uint64{
		"seqstore/internal/core.(*Store).Cell": 0x5469a0 % 64,
		"seqstore/internal/linalg.Axpy":        0x4f8b60 % 64,
		"seqstore/internal/linalg.AxpyRows":    0x4f8d70 % 64,
	}
	if len(got) != len(want) {
		t.Fatalf("addrMod64 = %v, want %v", got, want)
	}
	for sym, mod := range want {
		if got[sym] != mod {
			t.Errorf("%s: mod 64 = %d, want %d", sym, got[sym], mod)
		}
	}
}
