// Benchmarks: one per paper table/figure (regenerating a reduced-scale
// version of each experiment), plus the ablation benches called out in
// DESIGN.md §5. The full paper-scale runs live in cmd/experiments; these
// keep every experiment exercised by `go test -bench=.` with timings.
package seqstore

import (
	"math/rand"
	"sync"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/datacube"
	"seqstore/internal/dct"
	"seqstore/internal/experiments"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/svd"
	"seqstore/internal/vq"
	"seqstore/internal/wavelet"
)

// Shared fixtures, built once.
var (
	benchOnce    sync.Once
	benchPhone   *linalg.Matrix // 400×366 phone data
	benchStocks  *linalg.Matrix
	benchSVDD    *core.Store // SVDD at 10% over benchPhone
	benchPlain   *svd.Store  // plain SVD at 10%
	benchFactors *svd.Factors
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchPhone = experiments.Phone(400)
		benchStocks = experiments.Stocks()
		mem := matio.NewMem(benchPhone)
		var err error
		benchFactors, err = svd.ComputeFactors(mem)
		if err != nil {
			panic(err)
		}
		benchSVDD, err = core.CompressWithFactors(mem, benchFactors, core.Options{Budget: 0.10})
		if err != nil {
			panic(err)
		}
		benchPlain, err = svd.CompressWithFactorsWorkers(mem, benchFactors,
			svd.KForBudget(benchPhone.Rows(), benchPhone.Cols(), 0.10), 1)
		if err != nil {
			panic(err)
		}
	})
	b.ResetTimer()
}

// --- One bench per table / figure -------------------------------------------

// BenchmarkEq5Toy regenerates the worked toy decomposition of Eq. 5.
func BenchmarkEq5Toy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Toy(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Phone regenerates the accuracy-vs-space sweep (Figure 6,
// left) at reduced scale.
func BenchmarkFig6Phone(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchPhone, "phone", []float64{0.05, 0.10}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Stocks regenerates Figure 6 (right) on the stocks dataset.
func BenchmarkFig6Stocks(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchStocks, "stocks", []float64{0.05, 0.10}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the worst-case-error table (Table 3 /
// Figure 7).
func BenchmarkTable3(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchPhone, []float64{0.05, 0.10}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the rank-ordered error distribution (Figure 8).
func BenchmarkFig8(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchPhone, 0.10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates the aggregate-query-error curve (Figure 9).
func BenchmarkFig9(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig9Config{Budgets: []float64{0.05, 0.10}, Queries: 20, Seed: 1}
		if _, err := experiments.Fig9(benchPhone, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates the scale-up curve (Figure 10) at reduced N.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10([]int{200, 400}, []float64{0.10}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the worst-case-vs-N table (Table 4).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4([]int{200, 400}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGzipRef regenerates the §5.1 lossless reference point.
func BenchmarkGzipRef(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		_, err := experiments.GzipRef(map[string]*linalg.Matrix{"phone": benchPhone}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Viz regenerates the SVD-space scatter projection.
func BenchmarkFig11Viz(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		pts, err := Project(&Matrix{m: benchPhone})
		if err != nil {
			b.Fatal(err)
		}
		_ = ScatterPlot(pts, 72, 20)
	}
}

// BenchmarkSampling regenerates the §5.2 sampling comparison.
func BenchmarkSampling(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		_, err := experiments.SamplingComparison(benchPhone, []float64{0.10}, 20, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCube regenerates the §6.1 DataCube experiment.
func BenchmarkCube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := datacube.SalesConfig{Products: 50, Stores: 8, Weeks: 26, Seed: 1}
		if _, err := experiments.Cube(cfg, 0.15, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKOptSearch regenerates the k_opt ablation (§4.2).
func BenchmarkKOptSearch(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KOpt(benchPhone, 0.10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) -----------------------------------------

// BenchmarkAggregateFactored measures the O(k·(|R|+|C|)) factored sum.
func BenchmarkAggregateFactored(b *testing.B) {
	benchSetup(b)
	rng := rand.New(rand.NewSource(1))
	sel := query.RandomSelection(rng, benchPhone.Rows(), benchPhone.Cols(), 0.10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Evaluate(benchSVDD, query.Sum, sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateNaive measures the O(k·|R|·|C|) cell-by-cell sum.
func BenchmarkAggregateNaive(b *testing.B) {
	benchSetup(b)
	rng := rand.New(rand.NewSource(1))
	sel := query.RandomSelection(rng, benchPhone.Rows(), benchPhone.Cols(), 0.10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.EvaluateNaive(benchSVDD, query.Sum, sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaProbe measures SVDD cell reconstruction: one U-row read,
// O(k) arithmetic and a binary search of the row's delta bucket.
func BenchmarkDeltaProbe(b *testing.B) {
	benchSetup(b)
	n, m := benchSVDD.Dims()
	for i := 0; i < b.N; i++ {
		if _, err := benchSVDD.Cell(i%n, (i*7)%m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoPassSVD measures the paper's out-of-core two-pass
// factorization.
func BenchmarkTwoPassSVD(b *testing.B) {
	benchSetup(b)
	mem := matio.NewMem(benchStocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svd.ComputeFactors(mem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInMemorySVD measures the equivalent fully-in-memory SVD.
func BenchmarkInMemorySVD(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := linalg.ComputeSVD(benchStocks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellReconstruction measures the O(k) random-access path that the
// paper's "random access" requirement is about.
func BenchmarkCellReconstruction(b *testing.B) {
	benchSetup(b)
	n, m := benchSVDD.Dims()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchSVDD.Cell((i*31)%n, (i*17)%m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowReconstruction measures whole-sequence reconstruction.
func BenchmarkRowReconstruction(b *testing.B) {
	benchSetup(b)
	n, _ := benchSVDD.Dims()
	buf := make([]float64, benchPhone.Cols())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchSVDD.Row(i%n, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Compression-speed benches, one per method --------------------------------

func BenchmarkCompressSVDD(b *testing.B) {
	benchSetup(b)
	mem := matio.NewMem(benchPhone)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompressWithFactors(mem, benchFactors, core.Options{Budget: 0.10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSVD(b *testing.B) {
	benchSetup(b)
	mem := matio.NewMem(benchPhone)
	k := svd.KForBudget(benchPhone.Rows(), benchPhone.Cols(), 0.10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svd.CompressWithFactorsWorkers(mem, benchFactors, k, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressDCT(b *testing.B) {
	benchSetup(b)
	mem := matio.NewMem(benchPhone)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dct.CompressBudget(mem, 0.10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressCluster(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := vq.Compress(benchPhone, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellReconstructionPlainSVD is the plain-SVD random-access path
// (no delta probe), for comparison with BenchmarkCellReconstruction.
func BenchmarkCellReconstructionPlainSVD(b *testing.B) {
	benchSetup(b)
	n, m := benchPlain.Dims()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchPlain.Cell((i*31)%n, (i*17)%m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustSVDD regenerates the future-work (b) robust-SVD
// comparison at reduced scale.
func BenchmarkRobustSVDD(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robust(benchPhone, 0.10, []int{20}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTucker regenerates the future-work (c) 3-mode PCA decomposition.
func BenchmarkTucker(b *testing.B) {
	cube, err := datacube.GenerateSales(datacube.SalesConfig{Products: 40, Stores: 8, Weeks: 26, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datacube.DecomposeTucker(cube, 8, 4, 6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldIn measures incremental row absorption into an SVDD store.
func BenchmarkFoldIn(b *testing.B) {
	benchSetup(b)
	mem := matio.NewMem(benchPhone.Clone())
	s, err := core.CompressWithFactors(mem, benchFactors, core.Options{Budget: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	row := benchPhone.Row(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fold(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectral regenerates the §2.3 spectral-methods shootout.
func BenchmarkSpectral(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Spectral(benchPhone, "phone", []float64{0.10}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressWavelet measures the per-row Haar transform compressor.
func BenchmarkCompressWavelet(b *testing.B) {
	benchSetup(b)
	mem := matio.NewMem(benchPhone)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.CompressBudget(mem, 0.10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellReconstructionWavelet measures the O(log M) wavelet
// random-access path.
func BenchmarkCellReconstructionWavelet(b *testing.B) {
	benchSetup(b)
	mem := matio.NewMem(benchPhone)
	s, err := wavelet.CompressBudget(mem, 0.10)
	if err != nil {
		b.Fatal(err)
	}
	n, m := s.Dims()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Cell((i*31)%n, (i*17)%m); err != nil {
			b.Fatal(err)
		}
	}
}
