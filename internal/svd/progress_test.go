package svd

import (
	"log/slog"
	"math/rand"
	"strings"
	"testing"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
)

func TestProgressLogger(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := linalg.NewMatrix(64, 8)
	for i := 0; i < 64; i++ {
		for j := 0; j < 8; j++ {
			x.Set(i, j, r.NormFloat64())
		}
	}
	src := matio.NewMem(x)

	var sb strings.Builder
	SetProgressLogger(slog.New(slog.NewJSONHandler(&sb, nil)))
	defer SetProgressLogger(nil)

	s, err := CompressWorkers(src, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 4 {
		t.Fatalf("k = %d", s.K())
	}
	out := sb.String()
	for _, want := range []string{
		"pass 1: accumulate C", "pass 1: eigendecompose C", "pass 2: project U",
		`"workers":2`, `"rows":64`, "elapsed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("progress log missing %q:\n%s", want, out)
		}
	}

	// Silence again: no further output.
	SetProgressLogger(nil)
	before := sb.Len()
	if _, err := AccumulateCWorkers(src, 2); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != before {
		t.Error("logger still active after SetProgressLogger(nil)")
	}
}

func TestUPageSpan(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := linalg.NewMatrix(300, 6)
	for i := 0; i < 300; i++ {
		for j := 0; j < 6; j++ {
			x.Set(i, j, r.NormFloat64())
		}
	}
	// Memory-backed U: page span degenerates to the row count.
	s, err := Compress(matio.NewMem(x), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.UPageSpan(10, 20); got != 10 {
		t.Errorf("mem UPageSpan = %d, want 10", got)
	}
	if got := s.UPageSpan(5, 5); got != 0 {
		t.Errorf("empty UPageSpan = %d", got)
	}
}
