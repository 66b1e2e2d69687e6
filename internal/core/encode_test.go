package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"seqstore/internal/matio"
	"seqstore/internal/store"
)

// foldedStore compresses a seeded n×m matrix serially (so the factors are
// the same on every run) and folds seeded rows into it: each a smooth row
// the components mostly express plus a few spikes they cannot, with a
// per-row delta budget of −1…8 so some folds store nothing.
func foldedStore(tb testing.TB, n, m, folds int) *Store {
	tb.Helper()
	s, err := Compress(matio.NewMem(parallelPhone(n, m, 24)), Options{Budget: 0.15, Workers: 1, FlagZeroRows: true})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(folds)))
	fresh := parallelPhone(folds, m, 25)
	for f := 0; f < folds; f++ {
		row := fresh.Row(f)
		for sp := rng.Intn(6); sp > 0; sp-- {
			row[rng.Intn(m)] += 100 + 1000*rng.Float64()
		}
		if _, err := s.FoldIn(row, rng.Intn(10)-1); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestEncodedBytesPinned is the encoder-equivalence pin: the .sqz bytes of a
// seeded store after 100 fold-ins, at both precisions, hash to what the
// map-backed encoder (which collected the hash table's keys and sorted them)
// wrote at the commit before the CSR became the only delta index. Loading
// the golden files proves old bytes still decode; this proves new bytes are
// the old bytes.
func TestEncodedBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were taken on amd64; other targets may fuse multiply-adds")
	}
	s := foldedStore(t, 512, 64, 100)
	if n, _ := s.Dims(); n != 612 || s.NumOutliers() == 0 || len(s.ZeroRows()) == 0 {
		t.Fatalf("fixture: %d rows, %d deltas, %d zero rows", n, s.NumOutliers(), len(s.ZeroRows()))
	}
	for _, tc := range []struct {
		prec int
		want string
	}{
		{8, "3b702157afcd5fa57f038ade51cdc78206553439a294c5ae8310247c71789bda"},
		{4, "f8ddfdfe042061c629aea8d7d6bc36a8c93863cd49eb44a5329aee81735c498e"},
	} {
		if err := s.SetPrecision(tc.prec); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("b=%d: %d bytes hash to %s, want %s", tc.prec, buf.Len(), got, tc.want)
		}
	}
}

// BenchmarkSaveAfterFolds times serializing a store the ingest tier has
// been folding into — 4 000 compressed rows plus 8 000 folded ones — which
// is what every compaction's persist pays while it holds the write lock:
// the in-tree twin of bench's store.save_ms.
func BenchmarkSaveAfterFolds(b *testing.B) {
	s := foldedStore(b, 4000, 64, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Write(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}
