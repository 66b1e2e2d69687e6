package core

import (
	"fmt"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/metrics"
	"seqstore/internal/svd"
)

// BenchmarkCompressByWidth times both factor paths — the Gram pass and the
// sketch, each with its method's pass count — for SVDD and plain SVD on
// phone rows, over widths, two row counts and budgets (the budget sets the
// rank the sketch must recover), and reports each store's RMSPE (percent).
// The served workloads are all 366 wide, so this is where the wide side of
// svd.SketchMinCols is measured. At 20 000 rows M = 2 000 (a 320 MB
// matrix) runs at budget 0.10 only, and budget 1.00, the ceiling a tier's
// recompression clamps to, runs at 2 048 rows only.
//
//	go test ./internal/core -run '^$' -bench CompressByWidth -benchtime 1x
//	go test ./internal/core -run '^$' -bench 'CompressByWidth/N=2048/M=640/' -benchtime 1x
func BenchmarkCompressByWidth(b *testing.B) {
	for _, shape := range []struct {
		n, m    int
		budgets []float64
	}{
		{2048, 366, []float64{0.10, 0.30, 1.00}},
		{2048, 640, []float64{0.10, 0.30, 1.00}},
		{2048, 1000, []float64{0.10, 0.30, 1.00}},
		{2048, 2000, []float64{0.10, 0.30, 1.00}},
		{20000, 366, []float64{0.10, 0.30}},
		{20000, 640, []float64{0.10, 0.30}},
		{20000, 1000, []float64{0.10, 0.30}},
		{20000, 2000, []float64{0.10}},
	} {
		var (
			x   *linalg.Matrix
			src *matio.Mem
		)
		for _, budget := range shape.budgets {
			for _, method := range []string{"svdd", "svd"} {
				for _, path := range []string{"gram", "sketch"} {
					name := fmt.Sprintf("N=%d/M=%d/budget=%.2f/%s/%s", shape.n, shape.m, budget, method, path)
					b.Run(name, func(b *testing.B) {
						if x == nil {
							cfg := dataset.DefaultPhoneConfig(shape.n)
							cfg.M = shape.m
							x = dataset.GeneratePhone(cfg)
							src = matio.NewMem(x)
						}
						compress := widthCase(b, src, budget, method, path)
						var st *Store
						for i := 0; i < b.N; i++ {
							var err error
							if st, err = compress(); err != nil {
								b.Fatal(err)
							}
						}
						b.StopTimer()
						b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
						var acc metrics.Accumulator
						row := make([]float64, shape.m)
						for i := 0; i < shape.n; i++ {
							got, err := st.Row(i, row)
							if err != nil {
								b.Fatal(err)
							}
							acc.AddRow(i, x.Row(i), got)
						}
						b.ReportMetric(100*acc.RMSPE(), "rmspe_pct")
					})
				}
			}
		}
	}
}

// widthCase returns the compression one BenchmarkCompressByWidth cell
// times: SVDD at budget, or plain SVD at the cutoff the facade derives
// from it, through the named factor path.
func widthCase(b *testing.B, src matio.RowSource, budget float64, method, path string) func() (*Store, error) {
	n, m := src.Dims()
	if method == "svd" {
		k := svd.KForBudget(n, m, budget)
		if path == "gram" {
			return func() (*Store, error) { return plain(svd.CompressWorkers(src, k, 0)) }
		}
		return func() (*Store, error) {
			return plain(svd.CompressRandWorkers(src, k, svd.RandOptions{Rank: k, PowerIters: svd.SVDPowerIters}))
		}
	}
	opts := Options{Budget: budget}
	rank, err := budgetRank(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	factors := func() (*svd.Factors, error) { return svd.ComputeFactorsWorkers(src, 0) }
	if path == "sketch" {
		factors = func() (*svd.Factors, error) {
			return svd.ComputeFactorsRandWorkers(src, svd.RandOptions{Rank: rank, PowerIters: svd.SVDDPowerIters})
		}
	}
	return func() (*Store, error) {
		f, err := factors()
		if err != nil {
			return nil, err
		}
		return CompressWithFactors(src, f, opts)
	}
}

func plain(s *svd.Store, err error) (*Store, error) {
	if err != nil {
		return nil, err
	}
	return Plain(s), nil
}
