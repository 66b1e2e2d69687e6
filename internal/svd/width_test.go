package svd

import (
	"testing"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
)

// TestSketchedRule pins the rule's choice at shapes BenchmarkCompressByWidth
// measured (rank = the budget's cutoff): the sketch only from SketchMinCols
// columns, and only where it took under half the Gram pass's time.
func TestSketchedRule(t *testing.T) {
	for _, tc := range []struct {
		n, m, rank int
		want       bool
	}{
		{2048, 366, 31, false},    // narrower than SketchMinCols
		{100000, 366, 10, false},  // however tall and however low the rank
		{2048, 640, 48, true},     // budget 0.10: 0.36–0.43 of the Gram time
		{2048, 640, 146, false},   // budget 0.30: 0.82–1.01
		{2048, 640, 487, false},   // budget 1.00: 1.19–5.3
		{2048, 1000, 201, true},   // budget 0.30: 0.45–0.48
		{2048, 2000, 303, true},   // budget 0.30: 0.22
		{2048, 2000, 1011, false}, // budget 1.00: 0.86–2.35
		{20000, 640, 62, false},   // budget 0.10: 0.58–0.85
		{20000, 1000, 95, false},  // budget 0.10: 0.51–0.69
	} {
		if got := sketched(tc.n, tc.m, tc.rank); got != tc.want {
			t.Errorf("sketched(%d, %d, %d) = %v, want %v", tc.n, tc.m, tc.rank, got, tc.want)
		}
	}
}

// TestWidthChoosesFactorPath: where the rule says Gram, FactorsByWidth and
// CompressByWidth are, bit for bit and pass for pass, the Gram path's calls
// — below SketchMinCols columns, and at SketchMinCols with a rank the
// sketch would not halve the time at; where it says sketch, they are the
// sketch's, with each method's power-iteration count.
func TestWidthChoosesFactorPath(t *testing.T) {
	const n = 600
	gram := func(k int) (func(matio.RowSource) (*Factors, error), func(matio.RowSource) (*Store, error)) {
		return func(src matio.RowSource) (*Factors, error) { return ComputeFactorsWorkers(src, 1) },
			func(src matio.RowSource) (*Store, error) { return CompressWorkers(src, k, 1) }
	}
	for _, tc := range []struct {
		name           string
		m, rank, k     int
		sketch         bool
		factorPasses   int64
		compressPasses int64
	}{
		{name: "narrow", m: SketchMinCols - 1, rank: 10, k: 6,
			factorPasses:   1, // accumulate C
			compressPasses: 2, // accumulate C, project U
		},
		{name: "wide/high-rank", m: SketchMinCols, rank: 400, k: 400,
			factorPasses: 1, compressPasses: 2,
		},
		{name: "wide", m: SketchMinCols, rank: 10, k: 6, sketch: true,
			factorPasses:   1,                 // the sketch, Nyström recovery
			compressPasses: 1 + SVDPowerIters, // the sketch, then U from the power pass
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := sketched(n, tc.m, tc.rank); got != tc.sketch || sketched(n, tc.m, tc.k) != tc.sketch {
				t.Fatalf("sketched(%d, %d, %d) = %v, want %v for the rank and the cutoff", n, tc.m, tc.rank, got, tc.sketch)
			}
			factors, compress := gram(tc.k)
			if tc.sketch {
				factors = func(src matio.RowSource) (*Factors, error) {
					return ComputeFactorsRandWorkers(src, RandOptions{Rank: tc.rank, PowerIters: SVDDPowerIters, Workers: 1})
				}
				compress = func(src matio.RowSource) (*Store, error) {
					return CompressRandWorkers(src, tc.k, RandOptions{Rank: tc.k, PowerIters: SVDPowerIters, Workers: 1})
				}
			}
			x := decayingMatrix(n, tc.m, 12, 0.7, 23)

			src := matio.NewMem(x)
			got, err := FactorsByWidth(src, tc.rank, 1)
			if err != nil {
				t.Fatal(err)
			}
			if p := src.Stats().Passes(); p != tc.factorPasses {
				t.Errorf("FactorsByWidth made %d passes, want %d", p, tc.factorPasses)
			}
			want, err := factors(matio.NewMem(x))
			if err != nil {
				t.Fatal(err)
			}
			sameFactors(t, got.Sigma, want.Sigma, got.V, want.V)

			src = matio.NewMem(x)
			gotStore, err := CompressByWidth(src, tc.k, 1)
			if err != nil {
				t.Fatal(err)
			}
			if p := src.Stats().Passes(); p != tc.compressPasses {
				t.Errorf("CompressByWidth made %d passes, want %d", p, tc.compressPasses)
			}
			wantStore, err := compress(matio.NewMem(x))
			if err != nil {
				t.Fatal(err)
			}
			sameFactors(t, gotStore.Sigma(), wantStore.Sigma(), gotStore.V(), wantStore.V())
			gu, wu := make([]float64, gotStore.K()), make([]float64, wantStore.K())
			for i := 0; i < n; i++ {
				if err := gotStore.URow(i, gu); err != nil {
					t.Fatal(err)
				}
				if err := wantStore.URow(i, wu); err != nil {
					t.Fatal(err)
				}
				for j := range gu {
					if gu[j] != wu[j] {
						t.Fatalf("U[%d][%d] = %g, want %g", i, j, gu[j], wu[j])
					}
				}
			}
		})
	}
}

// sameFactors fails t unless the two factorizations agree bit for bit.
func sameFactors(t *testing.T, gotSigma, wantSigma []float64, gotV, wantV *linalg.Matrix) {
	t.Helper()
	if len(gotSigma) != len(wantSigma) {
		t.Fatalf("rank %d, want %d", len(gotSigma), len(wantSigma))
	}
	for j := range gotSigma {
		if gotSigma[j] != wantSigma[j] {
			t.Fatalf("σ[%d] = %g, want %g", j, gotSigma[j], wantSigma[j])
		}
	}
	for i := 0; i < gotV.Rows(); i++ {
		for j := 0; j < gotV.Cols(); j++ {
			if gotV.At(i, j) != wantV.At(i, j) {
				t.Fatalf("V[%d][%d] = %g, want %g", i, j, gotV.At(i, j), wantV.At(i, j))
			}
		}
	}
}
