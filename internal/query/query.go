// Package query implements the two query classes of the paper's
// experiments (§1, §5): single-cell lookups and aggregate queries over a
// selected set of rows and columns ("find the total sales to business
// customers for the week ending …").
//
// Aggregates over SVD-backed stores can be evaluated in factored form:
// since x̂[i][j] = Σ_m σ_m·u[i][m]·v[j][m],
//
//	Σ_{i∈R} Σ_{j∈C} x̂[i][j] = Σ_m σ_m·(Σ_{i∈R} u[i][m])·(Σ_{j∈C} v[j][m]),
//
// which costs O(k·(|R|+|C|)) instead of O(k·|R|·|C|) — plus one pass over
// the selected rows' delta buckets for SVDD. StdDev factors analogously
// through the component Gram matrices (see factored.go). Aggregates that
// cannot be factored (Min/Max, non-SVD stores) run on a selection-aware
// engine that reconstructs only the selected columns of each selected row
// and shards the row set across workers (see engine.go). The naive,
// factored and parallel paths are cross-checked by property tests.
package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"seqstore/internal/exact"
	"seqstore/internal/linalg"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
)

// Aggregate identifies an aggregate function f() over the selected cells.
type Aggregate int

// Supported aggregate functions.
const (
	Sum Aggregate = iota
	Avg
	Count
	Min
	Max
	StdDev
)

// String returns the SQL-ish name of the aggregate.
func (a Aggregate) String() string {
	switch a {
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	case StdDev:
		return "stddev"
	default:
		return fmt.Sprintf("aggregate(%d)", int(a))
	}
}

// ParseAggregate converts a name into an Aggregate.
func ParseAggregate(s string) (Aggregate, error) {
	switch s {
	case "sum":
		return Sum, nil
	case "avg", "mean":
		return Avg, nil
	case "count":
		return Count, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	case "stddev", "std":
		return StdDev, nil
	}
	return 0, fmt.Errorf("query: unknown aggregate %q", s)
}

// Selection is the cross product of a set of rows and a set of columns.
type Selection struct {
	Rows []int
	Cols []int
}

// ErrEmptySelection is returned when a selection contains no cells. It
// wraps seqerr.ErrEmptySelection so facade and server callers can classify
// it with errors.Is.
var ErrEmptySelection = fmt.Errorf("query: empty selection (%w)", seqerr.ErrEmptySelection)

// Validate checks that all indices are in range for an n×m matrix and that
// the selection is non-empty.
func (sel Selection) Validate(n, m int) error {
	if len(sel.Rows) == 0 || len(sel.Cols) == 0 {
		return ErrEmptySelection
	}
	for _, i := range sel.Rows {
		if i < 0 || i >= n {
			return fmt.Errorf("query: row %d out of range %d (%w)", i, n, seqerr.ErrOutOfRange)
		}
	}
	for _, j := range sel.Cols {
		if j < 0 || j >= m {
			return fmt.Errorf("query: column %d out of range %d (%w)", j, m, seqerr.ErrOutOfRange)
		}
	}
	return nil
}

// NumCells returns |Rows|·|Cols|.
func (sel Selection) NumCells() int { return len(sel.Rows) * len(sel.Cols) }

// All returns [0, 1, …, n−1], the full selection along one axis.
func All(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ParseIndexSpec parses a human-friendly index selection — comma-separated
// indices and half-open lo:hi ranges, mixed freely ("3,17,0:10") — used by
// the CLI and HTTP query front ends. An empty spec selects all of [0, n).
// It is ScanIndexSpec followed by Indices: every index is checked against
// [0, n) before any is allocated.
//
// A selection is a multiset: duplicate indices ("3,3" or overlapping
// ranges) are deliberately kept, so the duplicated rows/columns weight
// their cells multiply in aggregates over the selection cross product.
func ParseIndexSpec(spec string, n int) ([]int, error) {
	sp, err := ScanIndexSpec(spec, n)
	if err != nil {
		return nil, err
	}
	return sp.Indices(), nil
}

// IndexSpec is a parsed index spec whose indices are not yet allocated:
// its runs of consecutive indices, in spec order, each inside the axis it
// was parsed against. The empty spec is the one run [0, total). A selection
// carried as specs — from the HTTP door through the proxy's split to the
// engine's run schedule — costs what its text costs, never what it lists.
type IndexSpec struct {
	runs  []indexRun
	total int
}

type indexRun struct{ lo, n int }

// ScanIndexSpec parses spec (ParseIndexSpec's syntax) against an axis of n
// indices without allocating them. Negative indices and inverted ranges are
// malformed; an index ≥ n is refused with ErrOutOfRange, as Validate
// refuses it. Either way the caller hears of it before a range's size is
// allocated, and the count of indices is added up without overflow.
func ScanIndexSpec(spec string, n int) (IndexSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return IndexSpec{runs: []indexRun{{0, n}}, total: n}, nil
	}
	sp := IndexSpec{runs: make([]indexRun, 0, strings.Count(spec, ",")+1)}
	for rest, more := spec, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		var a, b int
		if lo, hi, ok := strings.Cut(part, ":"); ok {
			var err error
			if a, err = strconv.Atoi(strings.TrimSpace(lo)); err != nil {
				return IndexSpec{}, fmt.Errorf("query: bad range start %q: %w", lo, err)
			}
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
				return IndexSpec{}, fmt.Errorf("query: bad range end %q: %w", hi, err)
			}
			if a < 0 || b < 0 {
				return IndexSpec{}, fmt.Errorf("query: negative index in range %q", part)
			}
			if b < a {
				return IndexSpec{}, fmt.Errorf("query: inverted range %q", part)
			}
		} else {
			v, err := strconv.Atoi(part)
			if err != nil {
				return IndexSpec{}, fmt.Errorf("query: bad index %q: %w", part, err)
			}
			if v < 0 {
				return IndexSpec{}, fmt.Errorf("query: negative index %d", v)
			}
			if v >= n {
				return IndexSpec{}, indexOutOfRange(v, n)
			}
			a, b = v, v+1
		}
		if b > a && b > n {
			return IndexSpec{}, indexOutOfRange(max(a, n), n)
		}
		if b-a > math.MaxInt-sp.total {
			return IndexSpec{}, fmt.Errorf("query: spec lists more than %d indices", math.MaxInt)
		}
		sp.runs = append(sp.runs, indexRun{a, b - a})
		sp.total += b - a
	}
	return sp, nil
}

// SpecOf is the spec listing idx in order, consecutive indices as one run.
func SpecOf(idx []int) IndexSpec {
	sp := IndexSpec{runs: []indexRun{}, total: len(idx)}
	for p := 0; p < len(idx); {
		q := p + 1
		for q < len(idx) && idx[q] == idx[q-1]+1 {
			q++
		}
		sp.runs = append(sp.runs, indexRun{idx[p], q - p})
		p = q
	}
	return sp
}

func indexOutOfRange(i, n int) error {
	return fmt.Errorf("query: index %d out of range %d (%w)", i, n, seqerr.ErrOutOfRange)
}

// Len is the number of indices the spec lists, repeats included.
func (sp IndexSpec) Len() int { return sp.total }

// Indices allocates the spec's indices once, at their final length; a spec
// that lists none gives nil.
func (sp IndexSpec) Indices() []int {
	if sp.total == 0 {
		return nil
	}
	return sp.appendIndices(make([]int, 0, sp.total))
}

// appendIndices appends the spec's indices to dst.
func (sp IndexSpec) appendIndices(dst []int) []int {
	for _, r := range sp.runs {
		for i := 0; i < r.n; i++ {
			dst = append(dst, r.lo+i)
		}
	}
	return dst
}

// check refuses a spec that lists an index outside an axis of n, naming
// the first such index as Validate names it, in O(runs).
func (sp IndexSpec) check(n int, axis string) error {
	for _, r := range sp.runs {
		if r.n > 0 && r.lo+r.n > n {
			return fmt.Errorf("query: %s %d out of range %d (%w)", axis, max(r.lo, n), n, seqerr.ErrOutOfRange)
		}
	}
	return nil
}

// String renders the spec in ParseIndexSpec's syntax, abutting runs merged
// and empty ones dropped: a run of two or more indices as "lo:hi", a lone
// index as itself. Order and repeats survive, so parsing the text gives
// back the same list of indices, and the text is a function of that list
// alone. A spec that lists nothing renders as "" (which would parse as the
// whole axis: callers send no such spec).
func (sp IndexSpec) String() string {
	var b strings.Builder
	lo, end := 0, -1 // the merged run [lo, end) being rendered; end < 0: none
	flush := func() {
		if end < 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(lo))
		if end-lo >= 2 {
			b.WriteByte(':')
			b.WriteString(strconv.Itoa(end))
		}
	}
	for _, r := range sp.runs {
		switch {
		case r.n == 0:
		case r.lo == end:
			end += r.n
		default:
			flush()
			lo, end = r.lo, r.lo+r.n
		}
	}
	flush()
	return b.String()
}

// RandomSelection draws a selection covering approximately frac of the
// cells of an n×m matrix, with |Rows|/n ≈ |Cols|/m ≈ √frac as in the §5.2
// experiment ("rows and columns tuned so that ~10% of the cells would be
// included"). Deterministic for a given rng.
func RandomSelection(rng *rand.Rand, n, m int, frac float64) Selection {
	side := math.Sqrt(frac)
	nr := clampCount(int(math.Round(side*float64(n))), n)
	nc := clampCount(int(math.Round(side*float64(m))), m)
	return Selection{
		Rows: sampleDistinct(rng, n, nr),
		Cols: sampleDistinct(rng, m, nc),
	}
}

func clampCount(k, n int) int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// sampleDistinct picks k distinct ints from [0, n) in sorted order.
func sampleDistinct(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

// accum folds cells into any aggregate.
//
// NaN propagation: a NaN cell anywhere in the selection poisons every
// aggregate over it. Sum/Avg/StdDev propagate arithmetically (the exact
// accumulators carry a sticky NaN flag); Min/Max need the explicit IsNaN
// check below, because every float comparison against NaN is false and the
// plain update would silently skip the cell. This matches EvaluateMatrix
// on raw data (same accumulator) and survives the parallel engine's Merge.
//
// The running sums are exact.Sum superaccumulators, so folding is
// associative and commutative at the bit level: the merged result is
// independent of worker count, chunking, and — for the distributed tier —
// of how the selection was split across shards. Value() is the correctly
// rounded float64 of the true sum, not of some grouping of it.
type accum struct {
	n          int64
	sum, sumSq exact.Sum
	min, max   float64
}

func newAccum() *accum { return &accum{min: math.Inf(1), max: math.Inf(-1)} }

// reset returns a (possibly pooled) accumulator to its empty state — the
// merge identity.
func (a *accum) reset() { *a = accum{min: math.Inf(1), max: math.Inf(-1)} }

func (a *accum) add(v float64) {
	a.sum.Add(v)
	a.sumSq.Add(v * v)
	a.addExtrema(v)
}

// addExtrema folds a cell into the count and the extrema only, under the
// NaN rule above.
func (a *accum) addExtrema(v float64) {
	a.n++
	if math.IsNaN(v) || v < a.min {
		a.min = v
	}
	if math.IsNaN(v) || v > a.max {
		a.max = v
	}
}

// addMaxAll folds vs in order into the count and the running max alone,
// held in a local for the pass: the projected engine's fold of one row's
// cells for Max. The min stays the empty fold, so a Max partial carries
// only what Max reads.
func (a *accum) addMaxAll(vs []float64) {
	hi := a.max
	for _, v := range vs {
		if math.IsNaN(v) || v > hi {
			hi = v
		}
	}
	a.n += int64(len(vs))
	a.max = hi
}

// addMinAll is addMaxAll for Min.
func (a *accum) addMinAll(vs []float64) {
	lo := a.min
	for _, v := range vs {
		if math.IsNaN(v) || v < lo {
			lo = v
		}
	}
	a.n += int64(len(vs))
	a.min = lo
}

// setExtremum sets the one extremum a Max (wantMax) or Min fold reads to
// v, a selected cell found without folding it: the extremum index's answer,
// or the seed of a projection of the columns it left open.
func (a *accum) setExtremum(v float64, wantMax bool) {
	if wantMax {
		a.max = v
	} else {
		a.min = v
	}
}

// Merge folds b into a — the parallel engine's (and the distributed
// gather's) reduction. Every aggregate merges exactly: counts and exact
// sums add, min/max take the extremum, and NaN propagates across workers
// the same way add propagates it within one (an empty accumulator merges
// as the identity). Because the sums are exact, merging is bit-identical
// regardless of how cells were partitioned or in what order partials
// arrive.
func (a *accum) Merge(b *accum) {
	a.n += b.n
	a.sum.Merge(&b.sum)
	a.sumSq.Merge(&b.sumSq)
	if math.IsNaN(b.min) || b.min < a.min {
		a.min = b.min
	}
	if math.IsNaN(b.max) || b.max > a.max {
		a.max = b.max
	}
}

func (a *accum) result(agg Aggregate) (float64, error) {
	if a.n == 0 {
		return 0, ErrEmptySelection
	}
	switch agg {
	case Sum:
		return a.sum.Value(), nil
	case Avg:
		return a.sum.Value() / float64(a.n), nil
	case Count:
		return float64(a.n), nil
	case Min:
		return a.min, nil
	case Max:
		return a.max, nil
	case StdDev:
		mean := a.sum.Value() / float64(a.n)
		v := a.sumSq.Value()/float64(a.n) - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v), nil
	default:
		return 0, fmt.Errorf("query: unsupported aggregate %v", agg)
	}
}

// Evaluate computes the aggregate over the reconstructed cells of s with
// the default serial engine — EvaluateOpts with Workers: 1. Sum, Avg and
// StdDev on SVD/SVDD stores take the factored fast paths automatically;
// Min/Max and other store types go through the projected selection-aware
// engine.
func Evaluate(s store.Store, agg Aggregate, sel Selection) (float64, error) {
	return EvaluateOpts(s, agg, sel, Options{Workers: 1})
}

// EvaluateNaive computes the aggregate cell by cell (row-at-a-time),
// reconstructing every full row via store.Row. It is the reference
// implementation the engine and factored paths are cross-checked against.
func EvaluateNaive(s store.Store, agg Aggregate, sel Selection) (float64, error) {
	n, m := s.Dims()
	if err := sel.Validate(n, m); err != nil {
		return 0, err
	}
	acc := newAccum()
	row := make([]float64, m)
	for _, i := range sel.Rows {
		got, err := s.Row(i, row)
		if err != nil {
			return 0, fmt.Errorf("query: row %d: %w", i, err)
		}
		for _, j := range sel.Cols {
			acc.add(got[j])
		}
	}
	return acc.result(agg)
}

// EvaluateMatrix computes the exact aggregate over the raw matrix — the
// ground truth f(X) of Eq. 14.
func EvaluateMatrix(x *linalg.Matrix, agg Aggregate, sel Selection) (float64, error) {
	n, m := x.Dims()
	if err := sel.Validate(n, m); err != nil {
		return 0, err
	}
	acc := newAccum()
	for _, i := range sel.Rows {
		row := x.Row(i)
		for _, j := range sel.Cols {
			acc.add(row[j])
		}
	}
	return acc.result(agg)
}
