package core

import (
	"fmt"
	"testing"

	"seqstore/internal/matio"
)

// BenchmarkCompressSVDDParallel times the whole SVDD compression — the
// factor pass, which Workers shards, plus the serial pass 2 — on the
// acceptance matrix (N=20000, M=128, budget 10%). Pass 2 dominates, so the
// two sub-benchmarks differ by what sharding saves in the factor pass only.
func BenchmarkCompressSVDDParallel(b *testing.B) {
	const n, m = 20000, 128
	src := matio.NewMem(parallelPhone(n, m, 1))
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(n) * int64(m) * 8)
			for i := 0; i < b.N; i++ {
				if _, err := Compress(src, Options{Budget: 0.10, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
