package query

import (
	"reflect"
	"strings"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

func TestParseIndexSpec(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		want []int
	}{
		{"", 4, []int{0, 1, 2, 3}},
		{"  ", 3, []int{0, 1, 2}},
		{"2", 10, []int{2}},
		{"1:4", 10, []int{1, 2, 3}},
		{"3,17,0:3", 20, []int{3, 17, 0, 1, 2}},
		{"5:5", 10, nil}, // empty range parses; validation rejects later
		{" 1 , 2 : 4 ", 10, []int{1, 2, 3}},
	}
	for _, c := range cases {
		got, err := ParseIndexSpec(c.spec, c.n)
		if err != nil {
			t.Errorf("ParseIndexSpec(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseIndexSpec(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestParseIndexSpecErrors(t *testing.T) {
	bad := []struct {
		spec    string
		wantMsg string
	}{
		{"-1", "negative index"},
		{"3,-2", "negative index"},
		{"-1:5", "negative index"},
		{"0:-3", "negative index"},
		{"9:1", "inverted range"},
		{"zzz", "bad index"},
		{"1:x", "bad range end"},
		{"x:1", "bad range start"},
	}
	for _, c := range bad {
		_, err := ParseIndexSpec(c.spec, 10)
		if err == nil {
			t.Errorf("ParseIndexSpec(%q): no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("ParseIndexSpec(%q) error = %q, want substring %q", c.spec, err, c.wantMsg)
		}
	}
}

// TestDuplicateIndicesWeightCells pins the documented multiset semantics:
// duplicating an index in a selection weights its cells in aggregates.
func TestDuplicateIndicesWeightCells(t *testing.T) {
	x := linalg.FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	// Row 0 twice, column 1 once: sum = 2·x[0][1] = 4, count = 2.
	sum, err := EvaluateMatrix(x, Sum, Selection{Rows: []int{0, 0}, Cols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4 {
		t.Errorf("sum with duplicated row = %v, want 4", sum)
	}
	cnt, err := EvaluateMatrix(x, Count, Selection{Rows: []int{0, 0}, Cols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 2 {
		t.Errorf("count with duplicated row = %v, want 2", cnt)
	}
	// The compressed path agrees: full-rank SVD reconstructs exactly.
	st, err := svd.Compress(matio.NewMem(x), 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Evaluate(core.Plain(st), Sum, Selection{Rows: []int{0, 0}, Cols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - 4; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("compressed sum with duplicated row = %v, want 4", got)
	}
}
