package pqueue

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := NewTopK(3)
	if q.Len() != 0 {
		t.Error("new queue not empty")
	}
	if q.MinWeight() != 0 {
		t.Error("MinWeight of empty queue should be 0")
	}
	if len(q.Items()) != 0 {
		t.Error("Items of empty queue should be empty")
	}
}

func TestZeroCapacityRejectsAll(t *testing.T) {
	q := NewTopK(0)
	if q.Offer(Item{0, 0, 100}) {
		t.Error("zero-capacity queue accepted an item")
	}
	if q.Len() != 0 {
		t.Error("zero-capacity queue is not empty")
	}
}

func TestNegativeCapacityClamped(t *testing.T) {
	q := NewTopK(-5)
	if q.Cap() != 0 {
		t.Errorf("Cap = %d, want 0", q.Cap())
	}
}

func TestKeepsLargest(t *testing.T) {
	q := NewTopK(3)
	for i, d := range []float64{1, 5, 3, 9, 2, 7} {
		q.Offer(Item{Row: i, Delta: d})
	}
	items := q.Items()
	if len(items) != 3 {
		t.Fatalf("Len = %d, want 3", len(items))
	}
	got := []float64{items[0].Delta, items[1].Delta, items[2].Delta}
	want := []float64{9, 7, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Items[%d].Delta = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNegativeDeltasRankedByMagnitude(t *testing.T) {
	q := NewTopK(2)
	q.Offer(Item{Delta: -10})
	q.Offer(Item{Delta: 1})
	q.Offer(Item{Delta: -5})
	items := q.Items()
	if items[0].Delta != -10 || items[1].Delta != -5 {
		t.Errorf("Items = %v, want [-10 -5] by magnitude", items)
	}
}

func TestOfferReportsAdmission(t *testing.T) {
	q := NewTopK(1)
	if !q.Offer(Item{Delta: 2}) {
		t.Error("first offer should be accepted")
	}
	if q.Offer(Item{Delta: 1}) {
		t.Error("lighter item accepted into full queue")
	}
	if !q.Offer(Item{Delta: 3}) {
		t.Error("heavier item rejected")
	}
	if q.Items()[0].Delta != 3 {
		t.Error("heavier item did not replace lighter one")
	}
}

func TestTieNotAdmitted(t *testing.T) {
	q := NewTopK(1)
	q.Offer(Item{Row: 1, Delta: 5})
	if q.Offer(Item{Row: 2, Delta: -5}) {
		t.Error("equal-weight item should not evict (strictly-greater admission)")
	}
	if q.Items()[0].Row != 1 {
		t.Error("original item was evicted by a tie")
	}
}

func TestMinWeightIsThreshold(t *testing.T) {
	q := NewTopK(2)
	q.Offer(Item{Delta: 4})
	q.Offer(Item{Delta: 8})
	if q.MinWeight() != 4 {
		t.Errorf("MinWeight = %v, want 4", q.MinWeight())
	}
	q.Offer(Item{Delta: 6})
	if q.MinWeight() != 6 {
		t.Errorf("MinWeight after eviction = %v, want 6", q.MinWeight())
	}
}

func TestSumSquaredWeights(t *testing.T) {
	q := NewTopK(3)
	q.Offer(Item{Delta: 3})
	q.Offer(Item{Delta: -4})
	if got := q.SumSquaredWeights(); got != 25 {
		t.Errorf("SumSquaredWeights = %v, want 25", got)
	}
}

func TestItemsDoesNotDrain(t *testing.T) {
	q := NewTopK(2)
	q.Offer(Item{Delta: 1})
	q.Offer(Item{Delta: 2})
	_ = q.Items()
	if q.Len() != 2 {
		t.Error("Items drained the queue")
	}
}

// Property: the queue retains exactly the top-k by |delta| of any stream.
func TestTopKMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		k := r.Intn(20)
		q := NewTopK(k)
		all := make([]float64, n)
		for i := 0; i < n; i++ {
			d := r.NormFloat64() * 100
			all[i] = math.Abs(d)
			q.Offer(Item{Row: i, Delta: d})
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))
		items := q.Items()
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(items) != wantLen {
			return false
		}
		for i, it := range items {
			// Weights must match the sorted top-k exactly (values are
			// distinct with probability 1).
			if it.Weight() != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MinWeight equals the smallest retained weight.
func TestMinWeightInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewTopK(1 + r.Intn(10))
		for i := 0; i < 100; i++ {
			q.Offer(Item{Row: i, Delta: r.NormFloat64() * 10})
			items := q.Items()
			if len(items) == 0 {
				continue
			}
			minItem := items[len(items)-1].Weight()
			if q.MinWeight() != minItem {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// refHeap and refTopK are the container/heap implementation TopK replaced,
// kept as the reference the typed heap must match item for item.
type refHeap []Item

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].Weight() < h[j].Weight() }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(Item)) }
func (h *refHeap) Pop() interface{}   { panic("unused") }

type refTopK struct {
	cap int
	h   refHeap
}

func (q *refTopK) offer(it Item) bool {
	if q.cap == 0 {
		return false
	}
	if len(q.h) < q.cap {
		heap.Push(&q.h, it)
		return true
	}
	if it.Weight() <= q.h[0].Weight() {
		return false
	}
	q.h[0] = it
	heap.Fix(&q.h, 0)
	return true
}

// TestMatchesContainerHeap drives the typed heap and the reference with the
// same streams — weights drawn from a handful of values, so ties at the
// cutoff are the rule — and requires the same admissions and the same
// retained (Row, Col, Delta) set.
func TestMatchesContainerHeap(t *testing.T) {
	sameSet := func(q *TopK, ref *refTopK) bool {
		seen := make(map[Item]int)
		for _, it := range q.h {
			seen[it]++
		}
		for _, it := range ref.h {
			seen[it]--
		}
		for _, c := range seen {
			if c != 0 {
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(40)
		levels := 1 + r.Intn(12)
		draw := func(i int) Item {
			d := float64(r.Intn(levels))
			if r.Intn(2) == 0 {
				d = -d
			}
			return Item{Row: i, Col: r.Intn(7), Delta: d}
		}
		shards := [2]*TopK{NewTopK(k), NewTopK(k)}
		refs := [2]*refTopK{{cap: k}, {cap: k}}
		for i, n := 0, r.Intn(400); i < n; i++ {
			it, w := draw(i), r.Intn(2)
			if got, want := shards[w].Offer(it), refs[w].offer(it); got != want {
				t.Fatalf("seed %d: Offer #%d admitted=%v, reference %v", seed, i, got, want)
			}
		}
		for w := range shards {
			if !sameSet(shards[w], refs[w]) {
				t.Fatalf("seed %d: shard %d retained set differs from container/heap", seed, w)
			}
		}
	}
}

func TestOfferDoesNotAllocateAtCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	q := NewTopK(64)
	for i := 0; i < 64; i++ {
		q.Offer(Item{Row: i, Delta: r.NormFloat64()})
	}
	i := 64
	if a := testing.AllocsPerRun(1000, func() {
		q.Offer(Item{Row: i, Delta: 10 * r.NormFloat64()})
		i++
	}); a != 0 {
		t.Errorf("Offer allocates %v times per call at capacity, want 0", a)
	}
}

func BenchmarkOffer(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	q := NewTopK(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Offer(Item{Row: i, Delta: r.NormFloat64()})
	}
}
