package query

import (
	"encoding/binary"
	"fmt"
	"math"

	"seqstore/internal/exact"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
)

// This file is the distributed half of the query engine: evaluating a
// selection fragment into a mergeable Partial on a store node, and
// gathering shard partials back into the final aggregate on the proxy.
//
// The invariant the distributed tier is built on: because every
// cross-fragment reduction (cell sums, factored row moments, Gram
// matrices, SVDD delta corrections) is an exact.Sum superaccumulator,
// partial evaluation commutes with partitioning — any split of the
// selection's rows across shards, evaluated with any worker counts,
// merges to the bit-identical result of a single-node evaluation. The
// final rounding happens once, in the evalState.value call behind both
// EvaluateOpts and MergePartials.

// RowRange is a contiguous half-open range [Lo, Hi) of global row
// indices. Hi < 0 means unbounded (the range owns every row ≥ Lo).
type RowRange struct {
	Lo, Hi int
}

// Contains reports whether global row i falls in the range.
func (r RowRange) Contains(i int) bool {
	return i >= r.Lo && (r.Hi < 0 || i < r.Hi)
}

// SplitSelection partitions sel across contiguous shard row ranges,
// translating each row to its shard-local index (global − Lo). Row order
// — and therefore multiset duplicate weighting — is preserved within each
// shard. Columns are not sharded: every non-empty fragment carries the
// full column list (aliasing sel.Cols). A row covered by no range is an
// out-of-range error; shards with no selected rows get an empty fragment.
func SplitSelection(sel Selection, ranges []RowRange) ([]Selection, error) {
	out := make([]Selection, len(ranges))
	last := 0 // range memo: selections cluster into runs
	for _, i := range sel.Rows {
		s := -1
		if last < len(ranges) && ranges[last].Contains(i) {
			s = last
		} else {
			for ri := range ranges {
				if ranges[ri].Contains(i) {
					s = ri
					break
				}
			}
		}
		if s < 0 {
			return nil, fmt.Errorf("query: row %d not covered by any shard range (%w)", i, seqerr.ErrOutOfRange)
		}
		last = s
		out[s].Rows = append(out[s].Rows, i-ranges[s].Lo)
	}
	for s := range out {
		if len(out[s].Rows) > 0 {
			out[s].Cols = sel.Cols
		}
	}
	return out, nil
}

// Partial is the exact, mergeable state of one selection fragment's
// aggregate evaluation — what a store node returns to the proxy. Merging
// partials from any partition of the selection reproduces the single-node
// result bit for bit (see MergePartials).
//
// Two shapes share the struct: the cells shape (projected/generic engine:
// Min/Max, non-SVD stores, plus Count which is data-free) carries the
// fragment's accumulator state; the factored shape carries exact row
// moments, the replicated column moments and σ (bitwise identical on
// every shard of the same factorization), and the SVDD delta corrections.
type Partial struct {
	Agg      Aggregate
	Factored bool
	NumCells int64 // |fragment rows| · |cols|

	// Cells shape. A Min/Max partial from an SVD-family store carries
	// empty Sum/SumSq and only its own extremum — the other is the empty
	// ±Inf fold: the projected engine folds only the count and the extremum
	// the aggregate reads, which is all value and MergePartials read, so
	// the bytes depend on neither the worker count nor which rows it
	// skipped.
	N          int64
	Sum, SumSq exact.Sum
	Min, Max   float64

	// Factored shape.
	K                  int
	WantSq             bool // second moments present (StdDev)
	HasCorr            bool // store is SVDD: corrections are meaningful
	RowSum             []exact.Sum
	RowG               []exact.Sum // k×k row-major, upper triangle (WantSq)
	ColSum             []exact.Sum
	ColG               []exact.Sum // k×k row-major, upper triangle (WantSq)
	Sigma              []float64
	CorrSum, CorrSumSq exact.Sum
}

// EvaluatePartial evaluates the fragment sel on s into a mergeable
// Partial: the evaluation EvaluateOpts runs (same dispatch, same ledger
// charging), exported instead of rounded. The selection must be non-empty
// and within the store's local dimensions.
func EvaluatePartial(s store.Store, agg Aggregate, sel Selection, opts Options) (*Partial, error) {
	st := getState()
	defer st.release()
	if err := st.evaluate(opts.env(), s, agg, sel); err != nil {
		return nil, err
	}
	return st.export(agg), nil
}

// export copies the state's result into a Partial the caller owns.
func (st *evalState) export(agg Aggregate) *Partial {
	p := &Partial{Agg: agg, Factored: st.factored, NumCells: st.numCells}
	if !st.factored {
		p.N, p.Sum, p.SumSq, p.Min, p.Max = st.cells.n, st.cells.sum, st.cells.sumSq, st.cells.min, st.cells.max
		return p
	}
	p.K, p.WantSq, p.HasCorr = st.rowM.k, st.rowM.wantSq, st.hasCorr
	p.RowSum = append([]exact.Sum(nil), st.rowM.acc...)
	p.ColSum = append([]exact.Sum(nil), st.colM.acc...)
	if p.WantSq {
		p.RowG = append([]exact.Sum(nil), st.rowM.g...)
		p.ColG = append([]exact.Sum(nil), st.colM.g...)
	}
	p.Sigma = append([]float64(nil), st.sigma...)
	p.CorrSum, p.CorrSumSq = st.corr.sum, st.corr.sumSq
	return p
}

// PartialResult is one item's outcome in EvaluateBatchPartial; items fail
// independently like BatchResult.
type PartialResult struct {
	Partial *Partial
	Err     error
}

// EvaluateBatchPartial is EvaluateBatch exporting each item's state
// instead of rounding it: same loop, same single charge for the U-row
// union. Sharing changes only what the ledger charges, so each Partial is
// bit-identical to an independent EvaluatePartial call.
func EvaluateBatchPartial(s store.Store, items []BatchItem, opts Options) ([]PartialResult, error) {
	results := make([]PartialResult, len(items))
	err := evaluateBatch(s, items, opts, func(idx int, st *evalState, err error) {
		if err == nil {
			results[idx].Partial = st.export(items[idx].Agg)
		}
		results[idx].Err = err
	})
	return results, err
}

// MergePartials gathers shard partials into the final aggregate value.
// Partials must all carry agg and the same shape; the replicated factors
// (σ, column moments) must be bitwise identical across shards — a
// mismatch means the shards do not hold slices of the same factorization
// and is reported as an error rather than silently mis-merged. Merge
// order does not matter: every cross-shard reduction is exact.
//
// The returned value is bit-identical to evaluating the unsplit selection
// on a single node holding the whole store, because the exact partial
// states merge associatively into the same state evaluate fills and the
// final rounding is the same value call.
func MergePartials(agg Aggregate, parts []*Partial) (float64, error) {
	st := getState()
	defer st.release()
	st.clear()
	first := true
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := st.merge(agg, p, first); err != nil {
			return 0, err
		}
		first = false
	}
	if first {
		return 0, ErrEmptySelection
	}
	return st.value(agg)
}

// merge folds one partial into the state; the first fixes the shape and
// the replicated factors every later one must match. Every partial is
// checked before any of it is indexed — they arrive from other processes.
func (st *evalState) merge(agg Aggregate, p *Partial, first bool) error {
	if p.Agg != agg {
		return fmt.Errorf("query: partial carries aggregate %v, want %v", p.Agg, agg)
	}
	if first {
		st.factored = p.Factored
	} else if p.Factored != st.factored {
		return fmt.Errorf("query: mixed factored and cells partials")
	}
	st.numCells += p.NumCells
	if !p.Factored {
		st.cells.Merge(&accum{n: p.N, sum: p.Sum, sumSq: p.SumSq, min: p.Min, max: p.Max})
		return nil
	}
	k := p.K
	if len(p.RowSum) != k || len(p.ColSum) != k || len(p.Sigma) != k || p.WantSq != (agg == StdDev) ||
		(p.WantSq && (len(p.RowG) != k*k || len(p.ColG) != k*k)) {
		return fmt.Errorf("query: malformed factored partial")
	}
	if first {
		st.sigma, st.hasCorr = p.Sigma, p.HasCorr
		st.rowM.set(k, p.WantSq, p.RowSum, p.RowG)
		st.colM.set(k, p.WantSq, p.ColSum, p.ColG)
		st.corr = corrections{sum: p.CorrSum, sumSq: p.CorrSumSq}
		return nil
	}
	if k != st.rowM.k || p.HasCorr != st.hasCorr {
		return fmt.Errorf("query: inconsistent factored partial shapes")
	}
	if !sameFloats(p.Sigma, st.sigma) || !sameSums(p.ColSum, st.colM.acc) ||
		(p.WantSq && !sameSums(p.ColG, st.colM.g)) {
		return fmt.Errorf("query: shards disagree on replicated factors (not slices of one factorization?)")
	}
	st.rowM.merge(&uMoments{acc: p.RowSum, g: p.RowG})
	st.corr.sum.Merge(&p.CorrSum)
	st.corr.sumSq.Merge(&p.CorrSumSq)
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSums(a, b []exact.Sum) bool {
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

// Wire encoding of a Partial: a versioned, length-checked binary frame
// (base64 when a JSON body carries it, raw inside an internal/api frame).
// Binary rather than JSON floats because the payload is mostly
// superaccumulator registers, and because Min/Max/corrections may
// legitimately be NaN/±Inf which JSON numbers cannot carry.
//
//	magic "SQP1"
//	agg u8 · flags u8 (1 factored, 2 wantSq, 4 hasCorr) · numCells i64
//	cells:    n i64 · min u64(bits) · max u64(bits) · sum · sumSq
//	factored: k u32 · rowSum k · colSum k · sigma k×u64(bits)
//	          [rowG, colG: upper triangle, k(k+1)/2 each] · corrSum · corrSumSq
//
// exact.Sum fields use their own fixed-size encoding; all integers are
// little-endian. Gram matrices travel as the packed upper triangle (the
// lower is never read) and are unpacked to row-major k×k on decode.
const partialMagic = "SQP1"

// maxPartialK bounds the decoded rank: a defense against hostile or
// corrupt frames allocating k² accumulators.
const maxPartialK = 1 << 12

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *Partial) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, p.encodedSize())
	buf = append(buf, partialMagic...)
	buf = append(buf, byte(p.Agg))
	var flags byte
	if p.Factored {
		flags |= 1
	}
	if p.WantSq {
		flags |= 2
	}
	if p.HasCorr {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.NumCells))
	if !p.Factored {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.N))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Max))
		buf = p.Sum.AppendBinary(buf)
		buf = p.SumSq.AppendBinary(buf)
		return buf, nil
	}
	k := p.K
	if len(p.RowSum) != k || len(p.ColSum) != k || len(p.Sigma) != k ||
		(p.WantSq && (len(p.RowG) != k*k || len(p.ColG) != k*k)) {
		return nil, fmt.Errorf("query: malformed partial: k=%d with %d/%d/%d moments", k, len(p.RowSum), len(p.ColSum), len(p.Sigma))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	for i := range p.RowSum {
		buf = p.RowSum[i].AppendBinary(buf)
	}
	for i := range p.ColSum {
		buf = p.ColSum[i].AppendBinary(buf)
	}
	for _, s := range p.Sigma {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
	}
	if p.WantSq {
		for _, g := range [][]exact.Sum{p.RowG, p.ColG} {
			for a := 0; a < k; a++ {
				for b := a; b < k; b++ {
					buf = g[a*k+b].AppendBinary(buf)
				}
			}
		}
	}
	buf = p.CorrSum.AppendBinary(buf)
	buf = p.CorrSumSq.AppendBinary(buf)
	return buf, nil
}

// sumEncSize is the fixed exact.Sum encoding length.
var sumEncSize = len((&exact.Sum{}).AppendBinary(nil))

func (p *Partial) encodedSize() int {
	n := len(partialMagic) + 2 + 8
	if !p.Factored {
		return n + 3*8 + 2*sumEncSize
	}
	k := p.K
	n += 4 + 2*k*sumEncSize + k*8 + 2*sumEncSize
	if p.WantSq {
		n += 2 * (k * (k + 1) / 2) * sumEncSize
	}
	return n
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The header
// (flags, k) fixes the exact frame length, so the frame is measured once,
// before anything is allocated — a truncated or hostile frame costs its
// own size, never k² accumulators — and the body then decodes without
// further length checks. A malformed frame errors, never panics.
func (p *Partial) UnmarshalBinary(data []byte) error {
	const header = len(partialMagic) + 2 + 8
	if len(data) < header || string(data[:len(partialMagic)]) != partialMagic {
		return fmt.Errorf("query: bad partial frame header")
	}
	agg, flags := Aggregate(data[len(partialMagic)]), data[len(partialMagic)+1]
	if agg < Sum || agg > StdDev {
		return fmt.Errorf("query: bad partial aggregate %d", agg)
	}
	if flags&^7 != 0 {
		return fmt.Errorf("query: bad partial flags %#x", flags)
	}
	q := Partial{
		Agg:      agg,
		Factored: flags&1 != 0,
		WantSq:   flags&2 != 0,
		HasCorr:  flags&4 != 0,
		NumCells: int64(binary.LittleEndian.Uint64(data[header-8:])),
	}
	d := data[header:]
	if q.Factored {
		if len(d) < 4 {
			return fmt.Errorf("query: short partial frame")
		}
		q.K = int(binary.LittleEndian.Uint32(d))
		d = d[4:]
		if q.K < 1 || q.K > maxPartialK {
			return fmt.Errorf("query: partial rank %d out of bounds", q.K)
		}
	}
	switch want := q.encodedSize(); {
	case len(data) < want:
		return fmt.Errorf("query: short partial frame")
	case len(data) > want:
		return fmt.Errorf("query: trailing bytes in partial frame")
	}
	var err error
	takeSum := func(dst *exact.Sum) {
		if e := dst.UnmarshalBinary(d[:sumEncSize]); e != nil && err == nil {
			err = e
		}
		d = d[sumEncSize:]
	}
	takeU64 := func() uint64 {
		v := binary.LittleEndian.Uint64(d)
		d = d[8:]
		return v
	}
	if !q.Factored {
		q.N = int64(takeU64())
		q.Min, q.Max = math.Float64frombits(takeU64()), math.Float64frombits(takeU64())
		takeSum(&q.Sum)
		takeSum(&q.SumSq)
	} else {
		k := q.K
		q.RowSum, q.ColSum, q.Sigma = make([]exact.Sum, k), make([]exact.Sum, k), make([]float64, k)
		for i := range q.RowSum {
			takeSum(&q.RowSum[i])
		}
		for i := range q.ColSum {
			takeSum(&q.ColSum[i])
		}
		for i := range q.Sigma {
			q.Sigma[i] = math.Float64frombits(takeU64())
		}
		if q.WantSq {
			q.RowG, q.ColG = make([]exact.Sum, k*k), make([]exact.Sum, k*k)
			for _, g := range [][]exact.Sum{q.RowG, q.ColG} {
				for a := 0; a < k; a++ {
					for b := a; b < k; b++ {
						takeSum(&g[a*k+b])
					}
				}
			}
		}
		takeSum(&q.CorrSum)
		takeSum(&q.CorrSumSq)
	}
	if err != nil {
		return err
	}
	*p = q
	return nil
}
