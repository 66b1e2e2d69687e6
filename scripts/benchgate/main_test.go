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
