package core

import (
	"fmt"
	"math"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/pqueue"
	"seqstore/internal/svd"
)

func TestFoldInWithDeltasRepairsWorstCells(t *testing.T) {
	x := phoneSmall(60)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	n0, m := s.Dims()

	// A new customer whose pattern the components cannot express: a single
	// giant spike.
	newRow := make([]float64, m)
	newRow[17] = 1e4
	idx, err := s.FoldIn(newRow, 4)
	if err != nil {
		t.Fatal(err)
	}
	if idx != n0 {
		t.Fatalf("fold-in index = %d, want %d", idx, n0)
	}
	// The spike cell must be pinned exactly by a delta.
	v, err := s.Cell(idx, 17)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1e4) > 1e-6 {
		t.Errorf("spike cell = %v, want 10000 (delta-pinned)", v)
	}
}

func TestFoldInZeroDeltas(t *testing.T) {
	x := phoneSmall(40)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumOutliers()
	_, m := s.Dims()
	if _, err := s.FoldIn(make([]float64, m), 0); err != nil {
		t.Fatal(err)
	}
	if s.NumOutliers() != before {
		t.Error("maxDeltas=0 stored deltas anyway")
	}
}

func TestFoldInPreservesExistingCells(t *testing.T) {
	x := phoneSmall(40)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	wantRow, err := s.Row(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), wantRow...)
	cfg := dataset.DefaultPhoneConfig(1)
	cfg.M = x.Cols()
	extra := dataset.GeneratePhone(cfg)
	if _, err := s.FoldIn(extra.Row(0), 3); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Row(11, nil)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("existing row changed at col %d", j)
		}
	}
}

// minAbsDelta is τ worked out from what the store holds: the smallest
// |δ| over its deltas, +Inf when there are none.
func minAbsDelta(s *Store) float64 {
	tau := math.Inf(1)
	s.Deltas(func(_, _ int, d float64) { tau = min(tau, math.Abs(d)) })
	return tau
}

// TestFoldKeepsTau: a fold pins exactly the cells whose residual exceeds
// the store's τ, in column order, so every cell of a folded row is a stored
// delta or within τ of the value written, and τ does not move.
func TestFoldKeepsTau(t *testing.T) {
	x := phoneSmall(100) // rows 60–99 are new to the store
	s, err := Compress(matio.NewMem(phoneSmall(60)), Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	tau := minAbsDelta(s)
	if s.tau != tau || math.IsInf(tau, 1) {
		t.Fatalf("store τ = %v, its deltas say %v", s.tau, tau)
	}
	_, m := s.Dims()
	pinned := 0
	for i := 60; i < 100; i++ {
		row := x.Row(i)
		idx, err := s.Fold(row)
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.base.Row(idx, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for j := 0; j < m; j++ {
			if math.Abs(row[j]-base[j]) > tau {
				want = append(want, j)
			}
		}
		var got []int
		s.RowDeltas(idx, func(col int, d float64) {
			got = append(got, col)
			if d != row[col]-base[col] {
				t.Errorf("row %d col %d: δ %v, residual %v", idx, col, d, row[col]-base[col])
			}
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("row %d pinned columns %v, want %v", idx, got, want)
		}
		pinned += len(got)
		for j := 0; j < m; j++ {
			v, err := s.Cell(idx, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(v-row[j]) > tau {
				t.Fatalf("cell (%d, %d) = %v, written %v: outside τ = %v", idx, j, v, row[j], tau)
			}
		}
	}
	if pinned == 0 {
		t.Fatal("forty folds pinned nothing: the test exercises no delta")
	}
	if got := minAbsDelta(s); got != tau {
		t.Errorf("τ moved from %v to %v", tau, got)
	}
	// Every reader of the delta index agrees with it over the folded rows.
	checkDeltaIndex(t, s, snapshotDeltas(s))
}

// TestFoldWithoutBound: a Plain store and an SVDD store with no deltas
// (τ = +Inf) fold without pinning, and a store whose τ is rounding noise
// pins no cell below the negligible-delta floor.
func TestFoldWithoutBound(t *testing.T) {
	x := phoneSmall(41)
	plainBase, err := svd.Compress(matio.NewMem(phoneSmall(40)), 5)
	if err != nil {
		t.Fatal(err)
	}
	noDeltas, err := svd.Compress(matio.NewMem(phoneSmall(40)), 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{
		"plain":     Plain(plainBase),
		"no deltas": newStore(noDeltas, nil, nil, DefaultOutlierCost, Diagnostics{}),
	} {
		if !math.IsInf(s.tau, 1) {
			t.Errorf("%s: τ = %v, want +Inf", name, s.tau)
		}
		if _, err := s.Fold(x.Row(40)); err != nil {
			t.Fatal(err)
		}
		if s.NumOutliers() != 0 {
			t.Errorf("%s: fold stored %d deltas", name, s.NumOutliers())
		}
	}

	// Rank-2 data: the components express every row up to rounding, and
	// so does the one delta, 1e-15.
	lowRank := func(n int) *linalg.Matrix {
		x := linalg.NewMatrix(n, 8)
		for i := 0; i < n; i++ {
			for j := 0; j < 8; j++ {
				x.Set(i, j, float64(i+1)*float64(j%3)+float64(j))
			}
		}
		return x
	}
	base, err := svd.Compress(matio.NewMem(lowRank(19)), 2)
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(base, []pqueue.Item{{Row: 0, Col: 0, Delta: 1e-15}}, nil, DefaultOutlierCost, Diagnostics{})
	if _, err := s.Fold(lowRank(20).Row(19)); err != nil {
		t.Fatal(err)
	}
	if s.NumOutliers() != 1 {
		t.Errorf("a fold into a store with τ = 1e-15 pinned %d rounding residuals", s.NumOutliers()-1)
	}
}
