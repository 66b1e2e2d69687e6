// Package pqueue implements the bounded "keep the γ largest" collections
// used by the SVDD pass-2 algorithm (Figure 5 of the paper): one per
// candidate cutoff k collects the γ_k cells with the largest reconstruction
// errors while streaming over the data matrix.
//
// Retention follows one total order: heavier |Delta| first, then the smaller
// Row, then the smaller Col — among cells tied in weight, the one a matrix
// scan meets first. Offered in scan order (increasing Row, then Col), as every
// caller does, a TopK of capacity γ retains exactly the first γ of everything
// it was offered under that order, whatever its buffer size and whenever it
// selects: the retained set, Items and SumSquaredWeights are functions of the
// offered multiset alone, not of the container's layout.
package pqueue

import (
	"math"
	"math/bits"
	"slices"

	"seqstore/internal/exact"
)

// Item is a candidate outlier cell: its position in the matrix and the delta
// (actual − reconstructed) that would need to be stored to repair it.
type Item struct {
	Row, Col int
	// Delta is the signed correction x[i][j] − x̂[i][j].
	Delta float64
}

// Weight is the priority of an item: the magnitude of its error.
func (it Item) Weight() float64 { return math.Abs(it.Delta) }

// entry is an Item as the buffer holds it, in 16 bytes: matrix positions fit
// int32 throughout this repository (the stores index deltas the same way).
type entry struct {
	row, col int32
	delta    float64
}

// rank is an entry's place in the total order of retention as a 128-bit
// number, larger kept first: the weight's bit pattern (non-negative floats
// order as their bits do) over the inverted position.
type rank struct{ weight, pos uint64 }

func (e entry) rank() rank {
	return rank{math.Float64bits(e.delta) &^ (1 << 63), ^(uint64(uint32(e.row))<<32 | uint64(uint32(e.col)))}
}

// above is 1 when r > s and 0 otherwise — the borrow of s − r, a number the
// selection loop adds where a comparison would make it branch.
func (r rank) above(s rank) uint64 {
	_, borrow := bits.Sub64(s.pos, r.pos, 0)
	_, borrow = bits.Sub64(s.weight, r.weight, borrow)
	return borrow
}

// order is the three-way comparison: negative when a is kept before b.
func order(a, b entry) int {
	ra, rb := a.rank(), b.rank()
	return int(rb.above(ra)) - int(ra.above(rb))
}

// TopK keeps the k items with the largest |Delta| seen so far by buffer and
// select: an item heavier than the admission threshold is appended to a flat
// buffer of up to k + k/2 entries, and when the buffer fills (and when it
// first holds k) one quickselect keeps the k first under the total order and
// raises the threshold to the lightest of them — amortised O(1) sequential
// work per admitted item and 24 bytes per unit of k. Pass 2 feeds ~30 of
// these at once; a heap's O(log k) random accesses per admitted item, through
// megabytes no cache holds, were two thirds of that pass. A full buffer's
// cut, k − 1, sits two thirds of the way in, where a median pivot would halve
// the buffer and leave the cut in the larger half: selectNth aims a large
// buffer's pivot at the cut instead.
//
// The zero value is not usable; construct with NewTopK. A TopK with capacity
// zero accepts nothing (γ = 0 means "no outlier storage").
type TopK struct {
	cap   int
	limit int     // buffer length that triggers a selection
	buf   []entry // the retained items are the cap first of buf under order
	// admit is the weight an item must exceed to be buffered: −1 until cap
	// items are held, then the lightest retained weight as of the last
	// selection (+Inf when the capacity is zero). It only rises, and nearly
	// every Offer of a long stream ends at it.
	admit float64
}

// NewTopK returns a collection retaining the capacity items of largest weight.
func NewTopK(capacity int) *TopK {
	if capacity < 0 {
		capacity = 0
	}
	q := &TopK{cap: capacity, limit: capacity + max(capacity/2, 1), admit: -1}
	q.buf = make([]entry, 0, min(q.limit, 1024))
	if capacity == 0 {
		q.admit = math.Inf(1)
	}
	return q
}

// Cap returns the maximum number of retained items (γ).
func (q *TopK) Cap() int { return q.cap }

// Len returns the number of currently retained items.
func (q *TopK) Len() int { return min(len(q.buf), q.cap) }

// Admits reports whether Offer would take an item with this delta right
// now, i.e. whether |delta| exceeds the admission threshold (or is NaN, which
// no comparison rejects and Offer drops). The threshold only rises: a "no" is
// final, a "yes" holds until a heavier item displaces it.
func (q *TopK) Admits(delta float64) bool {
	return !(delta <= q.admit && delta >= -q.admit)
}

// Offer considers an item for retention and reports whether it was taken.
// Rejecting an item no heavier than the threshold — nearly every call of a
// long stream — is two comparisons, inlined at the call site. An item tied
// with the lightest retained one is rejected: it comes later in the scan.
func (q *TopK) Offer(it Item) bool {
	return q.Admits(it.Delta) && q.insert(it)
}

// insert buffers an item that passed the threshold, selecting when full.
func (q *TopK) insert(it Item) bool {
	if it.Delta != it.Delta {
		return false // NaN has no place in the order
	}
	if len(q.buf) == cap(q.buf) {
		// Double, but to the limit exactly: append's own growth would leave
		// a full buffer up to a quarter larger than it can ever fill.
		q.buf = append(make([]entry, 0, min(2*cap(q.buf), q.limit)), q.buf...)
	}
	q.buf = append(q.buf, entry{int32(it.Row), int32(it.Col), it.Delta})
	if len(q.buf) == q.limit || len(q.buf) == q.cap && q.admit < 0 {
		q.settle() // the buffer is full, or holds cap items for the first time
	}
	return true
}

// settle cuts the buffer back to the retained items and, once there are cap
// of them, raises the threshold to the lightest.
func (q *TopK) settle() {
	if len(q.buf) < q.cap || len(q.buf) == q.cap && q.admit >= 0 {
		return // not full yet, or nothing buffered since the last selection
	}
	selectNth(q.buf, q.cap-1)
	q.buf = q.buf[:q.cap]
	q.admit = math.Abs(q.buf[q.cap-1].delta)
}

// selectNth rearranges a so that a[n] is the entry of rank n under the total
// order, everything kept before it is in a[:n] and everything after it in
// a[n+1:]: quickselect, partitioning without a data-dependent branch (on
// scores in scan order a comparison is a coin toss). A range of sampleFrom
// entries or more takes its pivot from an evenly spaced sample, the entry
// whose rank in the sample matches n's relative position in the range, so
// the partition lands next to n; a smaller range pivots on the median of
// three. A range under a dozen entries
// is insertion-sorted — all a small TopK (FoldIn's γ = 8) ever runs — and one
// that bad pivots failed to shrink in 2·log₂ len rounds goes to the library
// sort. The pivots decide only how the work goes, never what is kept: the
// result is the order's, whichever pivots were taken.
func selectNth(a []entry, n int) {
	lo, hi := 0, len(a)-1
	for depth := 2 * bits.Len(uint(len(a))); hi-lo >= 12 && depth > 0; depth-- {
		if hi-lo+1 >= sampleFrom {
			samplePivot(a, lo, hi, n)
		} else {
			mid := lo + (hi-lo)/2
			if order(a[mid], a[lo]) < 0 {
				a[mid], a[lo] = a[lo], a[mid]
			}
			if order(a[hi], a[lo]) < 0 {
				a[hi], a[lo] = a[lo], a[hi]
			}
			if order(a[mid], a[hi]) < 0 {
				a[mid], a[hi] = a[hi], a[mid]
			}
		}
		pivot := a[hi]
		pr := pivot.rank()
		s, p := a[lo:hi], 0
		for i, x := range s {
			s[i] = s[p]
			s[p] = x
			p += int(x.rank().above(pr))
		}
		p += lo
		a[p], a[hi] = pivot, a[p]
		switch {
		case p == n:
			return
		case p < n:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	if hi-lo >= 12 {
		slices.SortFunc(a[lo:hi+1], order)
		return
	}
	for i := lo + 1; i <= hi; i++ {
		x, j := a[i], i
		for xr := x.rank(); j > lo && xr.above(a[j-1].rank()) != 0; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// A range of at least sampleFrom entries takes its pivot from sampleSize
// evenly spaced ones.
const sampleFrom, sampleSize = 2048, 64

// samplePivot moves to a[hi] the entry of the sample of a[lo:hi+1] whose rank
// in the sorted sample matches n's relative position in [lo, hi].
func samplePivot(a []entry, lo, hi, n int) {
	var idx [sampleSize]int
	for s := range idx {
		idx[s] = lo + s*(hi-lo)/(sampleSize-1)
	}
	slices.SortFunc(idx[:], func(i, j int) int { return order(a[i], a[j]) })
	p := idx[((n-lo)*(sampleSize-1)+(hi-lo)/2)/(hi-lo)]
	a[p], a[hi] = a[hi], a[p]
}

// Items returns the retained items in the total order: decreasing weight,
// ties by (Row, Col). The retained set is left intact.
func (q *TopK) Items() []Item {
	q.settle()
	slices.SortFunc(q.buf, order)
	out := make([]Item, len(q.buf))
	for i, e := range q.buf {
		out[i] = Item{Row: int(e.row), Col: int(e.col), Delta: e.delta}
	}
	return out
}

// SumSquaredWeights returns Σ delta² over retained items, correctly rounded
// from the exact sum — so it has no order to depend on. SVDD uses this to
// compute the residual error ε_k = SSE_k − Σ(top-γ_k errors²) without a
// second pass.
func (q *TopK) SumSquaredWeights() float64 {
	q.settle()
	var s exact.Sum
	for _, e := range q.buf {
		s.Add(e.delta * e.delta)
	}
	return s.Value()
}
