package pqueue

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"seqstore/internal/exact"
)

func TestEmptyQueue(t *testing.T) {
	q := NewTopK(3)
	if q.Len() != 0 {
		t.Error("new queue not empty")
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
	// What a later offer returns depends on when the threshold last rose;
	// what is retained does not (TestMatchesSortOracle).
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

// oracle is the contract spelled as a sort: of everything offered (NaN aside,
// which has no rank), the first capacity under the total order — heavier
// first, then the smaller Row, then the smaller Col.
func oracle(offered []Item, capacity int) []Item {
	var s []Item
	for _, it := range offered {
		if !math.IsNaN(it.Delta) {
			s = append(s, it)
		}
	}
	slices.SortFunc(s, func(a, b Item) int {
		switch {
		case a.Weight() != b.Weight():
			return cmp.Compare(b.Weight(), a.Weight())
		case a.Row != b.Row:
			return cmp.Compare(a.Row, b.Row)
		}
		return cmp.Compare(a.Col, b.Col)
	})
	return s[:min(capacity, len(s))]
}

// checkAgainstOracle requires Items, Len and SumSquaredWeights (bit for bit)
// to be what the sort says.
func checkAgainstOracle(t *testing.T, q *TopK, offered []Item) {
	t.Helper()
	want := oracle(offered, q.Cap())
	if got := q.Items(); !slices.Equal(got, want) {
		t.Fatalf("cap %d after %d offers: Items = %v, want %v", q.Cap(), len(offered), got, want)
	}
	if q.Len() != len(want) {
		t.Fatalf("cap %d after %d offers: Len = %d, want %d", q.Cap(), len(offered), q.Len(), len(want))
	}
	var sum exact.Sum
	for i := range want {
		d := want[len(want)-1-i].Delta // any order: the sum is exact
		sum.Add(d * d)
	}
	if got := q.SumSquaredWeights(); math.Float64bits(got) != math.Float64bits(sum.Value()) {
		t.Fatalf("cap %d after %d offers: SumSquaredWeights = %v, want %v", q.Cap(), len(offered), got, sum.Value())
	}
}

// TestMatchesSortOracle drives seeded streams in scan order — weights drawn
// from a handful of values, so ties at the cutoff are the rule, or all
// distinct — through capacities 0, 1, γ ≪ n and γ ≥ n, and compares with the
// oracle at a point mid-stream (reading must not disturb what follows) and at
// the end. Capacities from 1 366 up fill buffers of at least 2 048 entries, the
// ranges whose pivot comes from a sample: there the streams are ascending
// (every offer admitted, a selection per γ/2 offers), descending, organ-pipe
// and all of one weight.
func TestMatchesSortOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(3000)
		levels := 1 + r.Intn(12)
		if seed%4 == 3 {
			levels = 1 << 30
		}
		for _, capacity := range []int{0, 1, 2 + r.Intn(40), n/3 + 1, n + r.Intn(10)} {
			q := NewTopK(capacity)
			offered := make([]Item, 0, n)
			mid := r.Intn(n + 1)
			for i := 0; i < n; i++ {
				if i == mid {
					checkAgainstOracle(t, q, offered)
				}
				d := float64(r.Intn(levels))
				if r.Intn(2) == 0 {
					d = -d
				}
				it := Item{Row: i / 5, Col: i % 5, Delta: d}
				offered = append(offered, it)
				q.Offer(it)
			}
			checkAgainstOracle(t, q, offered)
		}
	}
	const streamLen = 12000
	shapes := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(streamLen - i) },
		"organ-pipe": func(i int) float64 { return float64(min(i, streamLen-i)) },
		"equal":      func(int) float64 { return 1 },
	}
	for name, weight := range shapes {
		for _, capacity := range []int{1366, 2000, 4500} {
			t.Run(fmt.Sprintf("%s/cap=%d", name, capacity), func(t *testing.T) {
				q := NewTopK(capacity)
				offered := make([]Item, 0, streamLen)
				for i := 0; i < streamLen; i++ {
					if i == streamLen/2 {
						checkAgainstOracle(t, q, offered)
					}
					d := weight(i)
					if i%3 == 0 {
						d = -d
					}
					it := Item{Row: i / 366, Col: i % 366, Delta: d}
					offered = append(offered, it)
					q.Offer(it)
				}
				checkAgainstOracle(t, q, offered)
			})
		}
	}
}

// FuzzTopK turns a byte stream into offers in scan order — the first byte the
// capacity, each further byte a signed weight from a few levels with ±Inf and
// NaN among them — and holds the result to the oracle.
func FuzzTopK(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 9, 9, 9, 9})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{40, 15, 14, 13, 7, 7, 7, 23, 23, 31, 30, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		q := NewTopK(int(data[0]))
		offered := make([]Item, 0, len(data)-1)
		for i, b := range data[1:] {
			d := float64(b & 7)
			switch b & 15 {
			case 14:
				d = math.Inf(1)
			case 15:
				d = math.NaN()
			}
			if b&16 != 0 {
				d = -d
			}
			it := Item{Row: i / 3, Col: i % 3, Delta: d}
			offered = append(offered, it)
			q.Offer(it)
			if b&32 != 0 && b&64 != 0 {
				checkAgainstOracle(t, q, offered)
			}
		}
		checkAgainstOracle(t, q, offered)
	})
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

// TestBufferStaysWithinLimit pins the memory bound: whatever is offered, a
// TopK never holds more than γ + max(γ/2, 1) entries — 24 bytes per unit of γ
// for γ ≥ 2 — and its buffer is never larger than that.
func TestBufferStaysWithinLimit(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64, 1000, 5000} {
		q := NewTopK(capacity)
		limit := capacity + max(capacity/2, 1)
		for i := 0; i < 20*capacity+100; i++ {
			q.Offer(Item{Row: i, Delta: float64(i)}) // ascending: every offer is admitted
			if len(q.buf) > limit || cap(q.buf) > limit {
				t.Fatalf("cap %d: buffer len %d cap %d after %d offers, limit %d", capacity, len(q.buf), cap(q.buf), i+1, limit)
			}
		}
	}
}
