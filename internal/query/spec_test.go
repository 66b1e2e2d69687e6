package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/trace"
)

// A selection reaches the engine either as row and column lists
// (Selection) or as the specs the HTTP door parses (BatchItem.Rows and
// .Cols), whose runs become the plan's schedule without a row list. These
// tests hold the two forms to one another bit for bit, and the proxy's
// split of a spec's runs to the split of its expanded rows byte for byte.

// specCases are row and column specs over an n×m store: ranges, lists,
// repeats, descending and interleaved rows, abutting and empty pieces, runs
// across moment-index blocks, and the whole axes.
func specCases(n, m int) map[string][2]string {
	rng := rand.New(rand.NewSource(int64(n)))
	var desc, random []string
	for i := n - 1; i >= 0 && len(desc) < 300; i -= 3 {
		desc = append(desc, fmt.Sprint(i))
	}
	for len(random) < 40 {
		lo := rng.Intn(n)
		random = append(random, fmt.Sprintf("%d:%d", lo, min(n, lo+rng.Intn(200))))
	}
	return map[string][2]string{
		"whole":       {"", ""},
		"abutting":    {fmt.Sprintf("0:5,5:9,9,10,11:%d", n/2), fmt.Sprintf("2,3:5,5:%d", m-1)},
		"empty-parts": {fmt.Sprintf("7:7,3,4,5,6,%d:%d,%d:%d,1:1", n/4, n/2, n/2, n-5), fmt.Sprintf("%d:%d,1,1,0", m-2, m-2)},
		"repeated":    {fmt.Sprintf("0:%d,0:%d,%d", n, n, n-1), "1,1,5"},
		"overlapping": {fmt.Sprintf("%d:%d,0:%d,%d:%d,%d:%d", n-70, n-3, n/3, n/4, n/2, n/4, n/2), fmt.Sprintf("%d,0:%d,4", m-1, m/2)},
		"descending":  {strings.Join(desc, ","), fmt.Sprintf("%d,%d,%d", m-1, m/2, 0)},
		"random":      {strings.Join(random, ","), fmt.Sprintf("0:%d,%d:%d", m/3, m/2, m)},
		"one":         {fmt.Sprint(n / 2), fmt.Sprint(m / 2)},
	}
}

// specOutcome is everything a batch of one item yields at a worker count:
// the value's bits, the executed ledger, the SQP1 bytes of its partial and
// its EXPLAIN.
type specOutcome struct {
	bits    uint64
	led     trace.LedgerSnapshot
	partial []byte
	ex      *Explain
}

func outcomeOf(t *testing.T, s store.Store, it BatchItem, workers int) specOutcome {
	t.Helper()
	tr := trace.New("t", "/test")
	opts := Options{Workers: workers, Ctx: trace.NewContext(context.Background(), tr)}
	res, err := EvaluateBatch(s, []BatchItem{it}, opts)
	if err != nil || res[0].Err != nil {
		t.Fatalf("%v: %v %v", it.Agg, err, res[0].Err)
	}
	out := specOutcome{bits: math.Float64bits(res[0].Value), led: tr.Ledger.Snapshot()}
	parts, err := EvaluateBatchPartial(s, []BatchItem{it}, Options{Workers: workers})
	if err != nil || parts[0].Err != nil {
		t.Fatalf("%v partial: %v %v", it.Agg, err, parts[0].Err)
	}
	out.partial = parts[0].Bytes
	if out.ex, err = ExplainItem(s, it, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return out
}

// specTier is an ingestion tier over a small SVDD cold segment with hot
// rows appended and one compaction folded: its aggregates take the generic
// loop.
func specTier(t *testing.T) store.Store {
	t.Helper()
	cfg := dataset.DefaultPhoneConfig(160)
	cfg.M = 24
	x := dataset.GeneratePhone(cfg)
	head := linalg.NewMatrix(120, cfg.M)
	for i := 0; i < 120; i++ {
		copy(head.Row(i), x.Row(i))
	}
	cold, err := core.Compress(matio.NewMem(head), core.Options{Budget: 0.15, Workers: 1, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	ti, err := ingest.Open(cold, nil, filepath.Join(t.TempDir(), "t.wal"), ingest.Options{DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ti.Close() })
	rows := make([][]float64, 0, 40)
	for i := 120; i < 160; i++ {
		rows = append(rows, x.Row(i))
	}
	if _, err := ti.AppendBatch(context.Background(), nil, rows[:30]); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := ti.AppendBatch(context.Background(), nil, rows[30:]); err != nil {
		t.Fatal(err)
	}
	return ti
}

// TestSpecPlanMatchesExpanded: an item carried as specs and the same item
// as the lists the specs expand to give equal value bits, an equal ledger,
// equal SQP1 partial bytes and an equal EXPLAIN, for every aggregate at
// workers {1, 3, 8}, on the extremum stores, row slices of them, a b = 4
// file and an ingestion tier.
func TestSpecPlanMatchesExpanded(t *testing.T) {
	stores := pruneStores(t)
	for name, s := range pruneStores(t) {
		n, _ := s.Dims()
		stores[name+"/slice"] = sliceStore(t, s, n/4, n-n/8)
	}
	b4, err := roundTo4(stores["svdd-spikes"].(*core.Store))
	if err != nil {
		t.Fatal(err)
	}
	stores["b4"] = b4
	stores["tier"] = specTier(t)
	for name, s := range stores {
		n, m := s.Dims()
		for caseName, c := range specCases(n, m) {
			rows, err := ScanIndexSpec(c[0], n)
			if err != nil {
				t.Fatalf("%s/%s rows: %v", name, caseName, err)
			}
			cols, err := ScanIndexSpec(c[1], m)
			if err != nil {
				t.Fatalf("%s/%s cols: %v", name, caseName, err)
			}
			sel := Selection{Rows: rows.Indices(), Cols: cols.Indices()}
			for _, agg := range allAggregates {
				for _, workers := range []int{1, 3, 8} {
					got := outcomeOf(t, s, BatchItem{Agg: agg, Rows: rows, Cols: cols}, workers)
					want := outcomeOf(t, s, BatchItem{Agg: agg, Sel: sel}, workers)
					if got.bits != want.bits || got.led != want.led {
						t.Errorf("%s/%s/%v/w%d: spec %#x %+v, list %#x %+v",
							name, caseName, agg, workers, got.bits, got.led, want.bits, want.led)
					}
					if !bytes.Equal(got.partial, want.partial) {
						t.Errorf("%s/%s/%v/w%d: spec and list partials differ", name, caseName, agg, workers)
					}
					if !reflect.DeepEqual(got.ex, want.ex) {
						t.Errorf("%s/%s/%v/w%d: spec EXPLAIN %+v, list %+v", name, caseName, agg, workers, *got.ex, *want.ex)
					}
				}
			}
		}
	}
}

// TestSpecChecksItsStore: a spec item is checked against the store it
// runs on, run by run, as Validate checks a list: an empty selection and
// the first row or column past the store are refused with the list's
// errors.
func TestSpecChecksItsStore(t *testing.T) {
	s := engineStores(t)["svdd"]
	n, m := s.Dims()
	wide, err := ScanIndexSpec(fmt.Sprintf("0:3,%d:%d,1", n-2, n+5), n+10)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := ScanIndexSpec("", m)
	empty, _ := ScanIndexSpec("4:4", n)
	for _, c := range []struct {
		rows, cols IndexSpec
		sel        Selection
	}{
		{wide, cols, Selection{Rows: wide.Indices(), Cols: cols.Indices()}},
		{empty, cols, Selection{Rows: nil, Cols: cols.Indices()}},
		{cols, wide, Selection{Rows: cols.Indices(), Cols: wide.Indices()}},
	} {
		_, err := Evaluate(s, Sum, c.sel)
		res, _ := EvaluateBatch(s, []BatchItem{{Agg: Sum, Rows: c.rows, Cols: c.cols}}, Options{Workers: 1})
		if err == nil || res[0].Err == nil || err.Error() != res[0].Err.Error() {
			t.Errorf("list refused with %v, spec with %v", err, res[0].Err)
		}
	}
}

// sortedRowRuns is the digest's row runs the way they were first built:
// the rows sorted and counted, consecutive rows of one multiplicity merged.
func sortedRowRuns(rows []int) []rowRun {
	sorted := slices.Clone(rows)
	slices.Sort(sorted)
	var out []rowRun
	for a := 0; a < len(sorted); {
		b := a + 1
		for b < len(sorted) && sorted[b] == sorted[a] {
			b++
		}
		i, mult := sorted[a], b-a
		if last := len(out) - 1; last >= 0 && out[last].hi == i && out[last].mult == mult {
			out[last].hi++
		} else {
			out = append(out, rowRun{lo: i, hi: i + 1, mult: mult})
		}
		a = b
	}
	return out
}

// TestDigestSweepMatchesSort: the digest's sweep of the run endpoints
// gives the row runs that sorting and counting the listed rows gives —
// abutting stretches of one multiplicity merged — for random multisets of
// ranges and lone rows, listed or as specs.
func TestDigestSweepMatchesSort(t *testing.T) {
	s := engineStores(t)["svdd"]
	n, m := s.Dims()
	rng := rand.New(rand.NewSource(9))
	st := new(evalState)
	for trial := 0; trial < 300; trial++ {
		var parts []string
		for k := rng.Intn(6); k >= 0; k-- {
			lo := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				parts = append(parts, fmt.Sprint(lo))
			case 1:
				parts = append(parts, fmt.Sprintf("%d:%d", lo, min(n, lo+rng.Intn(12))))
			default:
				hi := min(n, lo+rng.Intn(12))
				parts = append(parts, fmt.Sprintf("%d:%d,%d:%d", hi, min(n, hi+rng.Intn(12)), lo, hi))
			}
		}
		rows, err := ScanIndexSpec(strings.Join(parts, ","), n)
		if err != nil {
			t.Fatal(err)
		}
		cols, _ := ScanIndexSpec("0:3", m)
		want := sortedRowRuns(rows.Indices())
		for _, it := range []BatchItem{{Rows: rows, Cols: cols}, {Sel: Selection{Rows: rows.Indices(), Cols: cols.Indices()}}} {
			st.pl.reset(s, &it, m)
			if got := st.pl.buildDigest().rowRuns; !slices.Equal(got, want) {
				t.Fatalf("%q (specs %v): digest row runs %v, sorted %v", parts, it.specs(), got, want)
			}
		}
	}
}

// renderList is the rendering the proxy used before it split runs: a
// shard's rows listed one by one, consecutive ones packed into lo:hi.
func renderList(idx []int) string {
	var b strings.Builder
	for run := 0; run < len(idx); {
		end := run + 1
		for end < len(idx) && idx[end] == idx[end-1]+1 {
			end++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if end-run >= 2 {
			fmt.Fprintf(&b, "%d:%d", idx[run], idx[end-1]+1)
		} else {
			fmt.Fprintf(&b, "%d", idx[run])
		}
		run = end
	}
	return b.String()
}

// splitRows is the per-row split the proxy ran before it split runs: each
// listed row placed in its range, in order, and shifted to it.
func splitRows(sel Selection, ranges []RowRange) ([]Selection, error) {
	// Two passes over the rows: the first finds each row's range and
	// counts, so every fragment is allocated once, at its final length.
	counts := make([]int, len(ranges))
	last := 0 // range memo: selections cluster into runs
	shardOf := func(i int) int {
		if last < len(ranges) && ranges[last].Contains(i) {
			return last
		}
		for ri := range ranges {
			if ranges[ri].Contains(i) {
				last = ri
				return ri
			}
		}
		return -1
	}
	for _, i := range sel.Rows {
		s := shardOf(i)
		if s < 0 {
			return nil, fmt.Errorf("query: row %d not covered by any shard range (%w)", i, seqerr.ErrOutOfRange)
		}
		counts[s]++
	}
	out := make([]Selection, len(ranges))
	for s, c := range counts {
		if c > 0 {
			out[s] = Selection{Rows: make([]int, 0, c), Cols: sel.Cols}
		}
	}
	for _, i := range sel.Rows {
		s := shardOf(i)
		out[s].Rows = append(out[s].Rows, i-ranges[s].Lo)
	}
	return out, nil
}

// FuzzSpecSplit: splitting a spec's runs across shard ranges and rendering
// each piece gives, byte for byte, the text the per-row split
// (splitRows of the spec's Indices) rendered for every shard, and the
// same refusal for a row no range covers. Specs mix ranges, lone indices,
// repeats, descending and abutting pieces and empty ranges; the ranges are
// contiguous cuts, the last open or closed short of the axis, sometimes
// with one range left out.
func FuzzSpecSplit(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 5, 9, 1, 9, 0, 1, 10, 0}, []byte{40, 90}, uint8(0))
	f.Add([]byte{1, 7, 0, 1, 7, 0, 2, 3, 3}, []byte{7}, uint8(1))
	f.Add([]byte{0, 150, 190, 0, 0, 40, 1, 120, 0}, []byte{100, 50}, uint8(2))
	f.Add([]byte{}, []byte{60, 120, 180}, uint8(3))
	f.Fuzz(func(t *testing.T, spec, cuts []byte, mode uint8) {
		const n = 200
		var parts []string
		for k := 0; k+2 < len(spec) && len(parts) < 64; k += 3 {
			a, b := int(spec[k+1])%n, int(spec[k+2])%(n+1)
			switch spec[k] % 3 {
			case 0:
				parts = append(parts, fmt.Sprintf("%d:%d", min(a, b), max(a, b)))
			case 1:
				parts = append(parts, fmt.Sprint(a))
			default:
				parts = append(parts, fmt.Sprintf("%d:%d", a, a))
			}
		}
		sp, err := ScanIndexSpec(strings.Join(parts, ","), n)
		if err != nil {
			t.Fatal(err)
		}
		var ranges []RowRange
		lo := 0
		for _, c := range cuts {
			if hi := lo + 1 + int(c)%n; hi < n && len(ranges) < 8 {
				ranges = append(ranges, RowRange{Lo: lo, Hi: hi})
				lo = hi
			}
		}
		switch mode % 4 {
		case 0:
			ranges = append(ranges, RowRange{Lo: lo, Hi: -1})
		case 1:
			ranges = append(ranges, RowRange{Lo: lo, Hi: n})
		case 2:
			ranges = append(ranges, RowRange{Lo: lo, Hi: lo + (n-lo)/2})
		default:
			ranges = append(ranges, RowRange{Lo: lo, Hi: -1})
			if len(ranges) > 1 {
				ranges = append(ranges[:len(ranges)/2], ranges[len(ranges)/2+1:]...)
			}
		}
		want, wantErr := splitRows(Selection{Rows: sp.Indices()}, ranges)
		got, err := sp.Split(ranges)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("spec %q over %v: split error %v, per-row split %v", parts, ranges, err, wantErr)
		}
		if err != nil {
			return
		}
		for s := range ranges {
			if got[s].Len() != len(want[s].Rows) || got[s].String() != renderList(want[s].Rows) {
				t.Fatalf("spec %q over %v, shard %d: %q (%d rows), per-row split %q (%d rows)",
					parts, ranges, s, got[s].String(), got[s].Len(), renderList(want[s].Rows), len(want[s].Rows))
			}
		}
	})
}

// TestSpecPathAllocatesNoRows: with primed pools, a batch of one spec item
// allocates its results slice and nothing else, for every aggregate, on a
// range, on a descending multiset and on a column multiset — the plan's
// schedule, digest and column buffer are the pooled state's.
func TestSpecPathAllocatesNoRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun budgets only hold without -race")
	}
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(256))
	svdd, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	n, m := svdd.Dims()
	for _, c := range [][2]string{
		{"", ""},
		{fmt.Sprintf("%d:%d,0:%d,7,3:9", n/2, n, n/2), fmt.Sprintf("%d,4,9,4,0:%d", m-1, m/3)},
	} {
		rows, _ := ScanIndexSpec(c[0], n)
		cols, _ := ScanIndexSpec(c[1], m)
		for _, agg := range allAggregates {
			items := []BatchItem{{Agg: agg, Rows: rows, Cols: cols}}
			for i := 0; i < 5; i++ {
				if _, err := EvaluateBatch(svdd, items, Options{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(20, func() { _, _ = EvaluateBatch(svdd, items, Options{Workers: 1}) })
			if got != 1 {
				t.Errorf("%q × %q %v: %.1f allocs/op in steady state, want 1 (the results)", c[0], c[1], agg, got)
			}
		}
	}
}
