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
// encoder wrote for the same store with its delta and zero-row filters off
// (36 836 and 25 024 bytes), at the last commit that still had them. The
// hashes were taken from that older writer, not from this one, so the pin
// proves the writer that stores no filter writes exactly the old no-filter
// bytes. Loading the golden files proves old bytes still decode; this
// proves new bytes are the old bytes.
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
		{8, "95ccca3cfce42fbbda12a4e932b519599827c11bfc9ae9ff7f5d532c23e929b0"},
		{4, "b7e34071155d336f7e74f30a21b0be546ab5a226a883dce7e8c12973308ff987"},
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

// TestCellKey pins the .sqz delta key: row·M + col, so distinct cells of a
// matrix get distinct keys, ascending in row-major cell order.
func TestCellKey(t *testing.T) {
	if got := cellKey(2, 3, 100); got != 203 {
		t.Errorf("cellKey(2, 3, 100) = %d, want 203", got)
	}
	next := uint64(0)
	for i := 0; i < 10; i++ {
		for j := 0; j < 7; j++ {
			if got := cellKey(i, j, 7); got != next {
				t.Fatalf("cellKey(%d, %d, 7) = %d, want %d", i, j, got, next)
			}
			next++
		}
	}
}
