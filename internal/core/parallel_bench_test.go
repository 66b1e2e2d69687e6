package core

import (
	"fmt"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
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

// BenchmarkPass2 times CompressWithFactors alone — the scoring scan, the
// top-γ selection, the k_opt decision and the store assembly, with the
// factors computed outside the timer — on the phone fixture at the two
// shapes the instrument in bench/ uses (2048×366 is compress_batch's matrix,
// 20000×366 the served workloads' set-up): the in-tree twin of its
// core.pass2_ms.
func BenchmarkPass2(b *testing.B) {
	for _, n := range []int{2048, 20000} {
		b.Run(fmt.Sprintf("phone%dx366", n), func(b *testing.B) {
			src := matio.NewMem(dataset.GeneratePhone(dataset.DefaultPhoneConfig(n)))
			f, err := svd.ComputeFactorsWorkers(src, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CompressWithFactors(src, f, Options{Budget: 0.10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
