// Package pqueue implements the bounded "keep the γ largest" priority queues
// used by the SVDD pass-2 algorithm (Figure 5 of the paper): one queue per
// candidate cutoff k collects the γ_k cells with the largest reconstruction
// errors while streaming over the data matrix.
package pqueue

import (
	"math"
	"sort"
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

// TopK keeps the k items with the largest |Delta| seen so far, using a
// min-heap of size ≤ k so each Offer is O(log k) and streaming N·M cells
// costs O(N·M·log k) total.
//
// The heap is a plain []Item sifted in place: pass 2 offers every cell to
// every candidate queue, so an Offer must neither box the item into an
// interface nor allocate. The sift order is container/heap's, so which of
// several items tied at the cutoff weight survives is unchanged from the
// container/heap implementation this replaced.
//
// The zero value is not usable; construct with NewTopK. A TopK with capacity
// zero accepts nothing (γ = 0 means "no outlier storage").
type TopK struct {
	cap int
	h   []Item // binary min-heap on Weight
	// admit is the weight an item must exceed to be kept: −1 while the
	// queue is filling, the minimum's weight once it is full, +Inf when the
	// capacity is zero. It is what lets Offer reject without touching the heap.
	admit float64
}

// NewTopK returns a queue retaining the capacity items of largest weight.
func NewTopK(capacity int) *TopK {
	if capacity < 0 {
		capacity = 0
	}
	q := &TopK{cap: capacity, h: make([]Item, 0, min(capacity, 1024)), admit: -1}
	if capacity == 0 {
		q.admit = math.Inf(1)
	}
	return q
}

// Cap returns the maximum number of retained items (γ).
func (q *TopK) Cap() int { return q.cap }

// Len returns the number of currently retained items.
func (q *TopK) Len() int { return len(q.h) }

// MinWeight returns the smallest retained weight, or 0 when empty. When the
// queue is full this is the admission threshold: anything lighter is
// rejected without a heap operation.
func (q *TopK) MinWeight() float64 {
	if len(q.h) == 0 {
		return 0
	}
	return q.h[0].Weight()
}

// Admits reports whether Offer would keep an item with this delta right
// now, i.e. whether |delta| exceeds the admission threshold (or is NaN, which
// no comparison rejects). The threshold only rises: a "no" is final, and a
// caller may collect the items that got a "yes" and Offer them later.
func (q *TopK) Admits(delta float64) bool {
	return !(delta <= q.admit && delta >= -q.admit)
}

// Offer considers an item for retention and reports whether it was kept.
// Rejecting an item no heavier than the minimum of a full queue — nearly
// every call of a long stream — is two comparisons, inlined at the call site.
func (q *TopK) Offer(it Item) bool {
	return q.Admits(it.Delta) && q.insert(it)
}

// insert adds an item that passed Offer's threshold: a push while the queue
// is filling, a replacement of the minimum once it is full.
func (q *TopK) insert(it Item) bool {
	w := it.Weight()
	h := q.h
	if len(h) < q.cap {
		if len(h) == cap(h) {
			// Double, but not past the capacity: append would leave a full
			// queue up to a quarter larger than the items it can hold.
			h = append(make([]Item, 0, min(2*cap(h), q.cap)), h...)
		}
		// Append, then sift up while lighter than the parent.
		h = append(h, it)
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !(w < h[parent].Weight()) {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = it
		q.h = h
		if len(h) == q.cap {
			q.admit = h[0].Weight()
		}
		return true
	}
	if q.cap == 0 { // only a NaN weight gets past +Inf
		return false
	}
	// Sift down from the root: the lighter child moves up (the left one on
	// a tie) while it is lighter than the incoming item.
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		cw := h[child].Weight()
		if r := child + 1; r < len(h) {
			if rw := h[r].Weight(); rw < cw {
				child, cw = r, rw
			}
		}
		if !(cw < w) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = it
	q.admit = h[0].Weight()
	return true
}

// Items returns the retained items sorted by decreasing weight. The queue is
// left intact.
func (q *TopK) Items() []Item {
	out := make([]Item, len(q.h))
	copy(out, q.h)
	sort.Slice(out, func(i, j int) bool { return out[i].Weight() > out[j].Weight() })
	return out
}

// SumSquaredWeights returns Σ delta² over retained items. SVDD uses this to
// compute the residual error ε_k = SSE_k − Σ(top-γ_k errors²) without a
// second pass.
func (q *TopK) SumSquaredWeights() float64 {
	var s float64
	for _, it := range q.h {
		s += it.Delta * it.Delta
	}
	return s
}
