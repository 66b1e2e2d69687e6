package store_test

import (
	"io"
	"math/rand"
	"strconv"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/store"
)

// TestWriteLabeledAllocations pins what a compaction's persist allocates: a
// handful of buffers, whatever the store holds. Serializing this store — a
// 4 000-row SVDD compression grown by 8 000 labelled fold-ins — once cost an
// allocation per number written (each fixed-width put handed the underlying
// writer a stack array, which escapes), per delta key (collected and sorted)
// and per label (copied to bytes): six figures of them, all under the ingest
// tier's write lock.
func TestWriteLabeledAllocations(t *testing.T) {
	cfg := dataset.DefaultPhoneConfig(4000)
	cfg.M = 64
	s, err := core.Compress(matio.NewMem(dataset.GeneratePhone(cfg)), core.Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	cfg.N, cfg.Seed = 8000, cfg.Seed+1
	fresh := dataset.GeneratePhone(cfg)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 8000; i++ {
		row := fresh.Row(i)
		row[rng.Intn(len(row))] += 1000 // something for the deltas to pin
		if _, err := s.FoldIn(row, 8); err != nil {
			t.Fatal(err)
		}
	}
	n, _ := s.Dims()
	labels := &store.Labels{Rows: make([]string, n)}
	for i := range labels.Rows {
		labels.Rows[i] = "customer-" + strconv.Itoa(i)
	}
	if s.NumOutliers() < 8000 {
		t.Fatalf("fixture holds %d deltas after 8000 fold-ins", s.NumOutliers())
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := store.WriteLabeled(io.Discard, s, labels); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d rows, %d deltas: %.0f allocations per WriteLabeled", n, s.NumOutliers(), allocs)
	if allocs > 100 {
		t.Errorf("WriteLabeled allocates %.0f times, want ≤ 100", allocs)
	}
}
