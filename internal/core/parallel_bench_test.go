package core

import (
	"fmt"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

// BenchmarkCompressSVDDParallel times the whole SVDD compression — the
// factor pass, which Workers shards, plus the serial pass 2 — at budget 10 %
// on two inputs: the acceptance matrix (N=20000, M=128), where pass 2
// dominates, so the two sub-benchmarks differ by what sharding saves in the
// factor pass only; and the phone fixture at 2048×366, the matrix of one
// compress_batch op in bench/ (its in-tree twin, which that workload runs at
// GOMAXPROCS workers).
func BenchmarkCompressSVDDParallel(b *testing.B) {
	inputs := []struct {
		name string
		x    *linalg.Matrix
	}{
		{"rand20000x128", parallelPhone(20000, 128, 1)},
		{"phone2048x366", dataset.GeneratePhone(dataset.DefaultPhoneConfig(2048))},
	}
	for _, in := range inputs {
		src := matio.NewMem(in.x)
		n, m := in.x.Dims()
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", in.name, workers), func(b *testing.B) {
				b.SetBytes(int64(n) * int64(m) * 8)
				for i := 0; i < b.N; i++ {
					if _, err := Compress(src, Options{Budget: 0.10, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
