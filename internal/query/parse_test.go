package query

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
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

// TestParseIndexSpecBoundsBeforeAllocating: an index past the axis is
// refused at parse time with ErrOutOfRange, before a range's size is
// allocated — a range of 4·10¹⁸ rows is an error, not a panic — and a
// spec's count of indices is added up without overflowing.
func TestParseIndexSpecBoundsBeforeAllocating(t *testing.T) {
	for _, spec := range []string{"0:4000000000000000000", "10", "5:11", "3,9223372036854775807", "9223372036854775806:9223372036854775807"} {
		if _, err := ParseIndexSpec(spec, 10); !errors.Is(err, seqerr.ErrOutOfRange) {
			t.Errorf("ParseIndexSpec(%q, 10): %v, want ErrOutOfRange", spec, err)
		}
	}
	for spec, want := range map[string]int{"9": 1, "0:10": 10, "10:10": 0, "0:10,0:10,3": 21} {
		sp, err := ScanIndexSpec(spec, 10)
		if err != nil || sp.Len() != want || len(sp.Indices()) != want {
			t.Errorf("ScanIndexSpec(%q, 10): %v, %d indices; want %d", spec, err, sp.Len(), want)
		}
	}
	if _, err := ScanIndexSpec("0:9223372036854775807,0:1", math.MaxInt); err == nil || errors.Is(err, seqerr.ErrOutOfRange) {
		t.Errorf("a spec of more than MaxInt indices: %v, want a malformed-spec error", err)
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

// TestParseAndSplitAllocateOnce: a range spec and a shard split allocate
// their indices once, at their final length — the proxy parses and splits
// every aggregate's selection, and appended one by one a range of thousands
// of rows allocated several times its size.
func TestParseAndSplitAllocateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun budgets only hold without -race")
	}
	rows, err := ParseIndexSpec("0:5000, 7 ,10:20", 5000)
	if err != nil || len(rows) != 5011 || cap(rows) != len(rows) {
		t.Fatalf("parsed %d rows (cap %d), %v; want 5011 at capacity", len(rows), cap(rows), err)
	}
	// The part list, the parsed parts and the indices.
	if got := testing.AllocsPerRun(20, func() { _, _ = ParseIndexSpec("0:5000, 7 ,10:20", 5000) }); got > 3 {
		t.Errorf("ParseIndexSpec: %.0f allocations, want at most 3", got)
	}
	sel := Selection{Rows: seq(0, 20000), Cols: []int{1}}
	ranges := []RowRange{{Lo: 0, Hi: 12000}, {Lo: 12000, Hi: -1}}
	frags, err := SplitSelection(sel, ranges)
	if err != nil {
		t.Fatal(err)
	}
	for s, f := range frags {
		if cap(f.Rows) != len(f.Rows) {
			t.Errorf("fragment %d: %d rows at capacity %d", s, len(f.Rows), cap(f.Rows))
		}
	}
	// The counts, the fragments and each fragment's rows.
	if got := testing.AllocsPerRun(20, func() { _, _ = SplitSelection(sel, ranges) }); got > 4 {
		t.Errorf("SplitSelection: %.0f allocations, want at most 4", got)
	}
}
