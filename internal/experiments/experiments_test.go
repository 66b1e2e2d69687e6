package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"seqstore/internal/datacube"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

// Small parameter sets keep the test suite fast; cmd/experiments runs the
// paper-scale versions.
var (
	testBudgets = []float64{0.05, 0.10, 0.20}
	testSizes   = []int{200, 400}
)

func TestFig6ShapesHold(t *testing.T) {
	x := Phone(300)
	var buf bytes.Buffer
	res, err := Fig6(x, "phone300", testBudgets, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(testBudgets) {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		// SVDD must never lose to plain SVD at equal space (the paper's
		// headline comparison).
		if row.SVDD > row.SVD+1e-9 {
			t.Errorf("s=%.2f: SVDD %.4f worse than SVD %.4f", row.S, row.SVDD, row.SVD)
		}
		// SVD is the optimal linear transform: it must beat DCT (§2.3).
		if row.SVD > row.DCT+1e-9 {
			t.Errorf("s=%.2f: SVD %.4f worse than DCT %.4f", row.S, row.SVD, row.DCT)
		}
		// Error decreases with space for every method.
		if i > 0 {
			prev := res.Rows[i-1]
			if row.SVDD > prev.SVDD+1e-9 {
				t.Errorf("SVDD error increased with space at s=%.2f", row.S)
			}
			if row.DCT > prev.DCT+1e-9 {
				t.Errorf("DCT error increased with space at s=%.2f", row.S)
			}
		}
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("missing table header")
	}
}

func TestFig6OnStocksDCTCompetitive(t *testing.T) {
	// §5.1: DCT does much better on stocks (random walks) than on phone
	// data — it should at least hugely beat clustering there at modest s.
	x := Stocks()
	res, err := Fig6(x, "stocks", []float64{0.10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.DCT > 0.5 {
		t.Errorf("DCT on stocks RMSPE %.3f, expected decent (<0.5)", row.DCT)
	}
	if row.SVDD > row.DCT {
		t.Errorf("SVDD should still win: %.4f vs %.4f", row.SVDD, row.DCT)
	}
}

func TestTable3WorstCaseContrast(t *testing.T) {
	x := Phone(300)
	rows, err := Table3(x, testBudgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// SVDD bounds the worst case far below plain SVD (Table 3 shows
		// 465% vs 14% at 5%).
		if r.SVDDAbs >= r.SVDAbs {
			t.Errorf("s=%.2f: SVDD worst %.3f not below SVD worst %.3f", r.S, r.SVDDAbs, r.SVDAbs)
		}
		if r.SVDNorm <= 0 || r.SVDDNorm <= 0 {
			t.Errorf("s=%.2f: non-positive normalized errors", r.S)
		}
	}
}

func TestFig8SteepDrop(t *testing.T) {
	x := Phone(300)
	res, err := Fig8(x, 0.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.K <= 0 {
		t.Fatalf("k = %d", res.K)
	}
	if len(res.Errors) == 0 {
		t.Fatal("no errors collected")
	}
	// Rank-ordered: strictly non-increasing.
	for i := 1; i < len(res.Errors); i++ {
		if res.Errors[i] > res.Errors[i-1] {
			t.Fatal("errors not rank-ordered")
		}
	}
	// The paper's point: a steep initial drop — the 100th-worst error is
	// already a small fraction of the worst, and the median is orders of
	// magnitude below the mean.
	if len(res.Errors) > 100 && res.Errors[100] > 0.5*res.Errors[0] {
		t.Errorf("no steep drop: rank-100 error %.3g vs worst %.3g", res.Errors[100], res.Errors[0])
	}
	if res.Median >= res.Mean {
		t.Errorf("median %.3g not below mean %.3g", res.Median, res.Mean)
	}
}

func TestFig9AggregatesBeatCells(t *testing.T) {
	x := Phone(300)
	rows, err := Fig9(x, Fig9Config{Budgets: testBudgets, Queries: 20, CellFrac: 0.10, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.QErr >= r.RMSPE {
			t.Errorf("s=%.2f: aggregate Qerr %.4f not below RMSPE %.4f", r.S, r.QErr, r.RMSPE)
		}
	}
}

func TestFig10Homogeneous(t *testing.T) {
	cells, err := Fig10(testSizes, []float64{0.10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells", len(cells))
	}
	// Figure 10: error at a fixed budget is roughly flat across N.
	a, b := cells[0].RMSPE, cells[1].RMSPE
	if ratio := math.Max(a, b) / math.Min(a, b); ratio > 2 {
		t.Errorf("RMSPE varies %.1f× across sizes (%.4f vs %.4f)", ratio, a, b)
	}
}

func TestTable4SVDDStableSVDGrows(t *testing.T) {
	rows, err := Table4([]int{200, 800}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("wrong row count")
	}
	for _, r := range rows {
		if r.SVDDNorm >= r.SVDNorm {
			t.Errorf("N=%d: SVDD worst %.3f not below SVD %.3f", r.N, r.SVDDNorm, r.SVDNorm)
		}
	}
}

func TestGzipRef(t *testing.T) {
	x := Phone(100)
	rows, err := GzipRef(map[string]*linalg.Matrix{"phone100": x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Dataset != "phone100" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].TextRatio <= 0 || rows[0].TextRatio > 1 {
		t.Errorf("text ratio %.3f out of range", rows[0].TextRatio)
	}
	// The point of the reference: lossless gzip needs far more space than
	// the ~10% SVDD budget.
	if rows[0].TextRatio < 0.10 {
		t.Errorf("gzip ratio %.3f implausibly small", rows[0].TextRatio)
	}
}

func TestKOptCurve(t *testing.T) {
	x := Phone(300)
	pts, err := KOpt(x, 0.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("only %d candidates", len(pts))
	}
	chosen := 0
	var chosenEps float64
	for _, p := range pts {
		if p.Chosen {
			chosen++
			chosenEps = p.Eps
		}
	}
	if chosen != 1 {
		t.Fatalf("%d chosen points", chosen)
	}
	for _, p := range pts {
		if p.Eps < chosenEps-1e-9 {
			t.Errorf("k=%d has smaller ε than the chosen point", p.K)
		}
		if p.Gamma < 0 {
			t.Errorf("negative γ at k=%d", p.K)
		}
	}
}

func TestSamplingComparison(t *testing.T) {
	x := Phone(300)
	rows, err := SamplingComparison(x, []float64{0.05, 0.10}, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// §5.2: sampling performs poorly compared with SVDD.
		if r.SVDDQErr >= r.SamplingQErr && r.Unanswerable == 0 {
			t.Errorf("s=%.2f: SVDD Qerr %.4f not below sampling %.4f",
				r.S, r.SVDDQErr, r.SamplingQErr)
		}
	}
}

func TestToyPrintsDecomposition(t *testing.T) {
	var buf bytes.Buffer
	f, err := Toy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() != 2 {
		t.Errorf("toy rank = %d", f.Rank())
	}
	out := buf.String()
	for _, want := range []string{"9.64", "5.29", "KLM", "Su"} {
		if !strings.Contains(out, want) {
			t.Errorf("toy output missing %q", want)
		}
	}
}

func TestVizRenders(t *testing.T) {
	var buf bytes.Buffer
	err := Viz(map[string]*linalg.Matrix{"phone": Phone(150)}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 11 (phone)") {
		t.Error("missing scatter header")
	}
	if !strings.Contains(buf.String(), "150 points") {
		t.Error("missing point count")
	}
}

func TestCubeBothGroupings(t *testing.T) {
	rows, err := Cube(datacube.SalesConfig{Products: 40, Stores: 10, Weeks: 26, Seed: 1}, 0.15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d groupings", len(rows))
	}
	for _, r := range rows {
		if r.RMSPE <= 0 || r.RMSPE > 1 {
			t.Errorf("%s: implausible RMSPE %.3f", r.Grouping, r.RMSPE)
		}
		if r.Space > 0.15+1e-9 {
			t.Errorf("%s: space %.3f over budget", r.Grouping, r.Space)
		}
	}
}

func TestRobustExperiment(t *testing.T) {
	x := Phone(250)
	rows, err := Robust(x, 0.10, []int{0, 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PlainRMSPE <= 0 || r.RobustRMSPE <= 0 {
			t.Errorf("spikes=%d: non-positive RMSPE", r.Spikes)
		}
	}
	// With many spikes the robust variant should not be (meaningfully)
	// worse than the standard one.
	last := rows[len(rows)-1]
	if last.RobustRMSPE > last.PlainRMSPE*1.1 {
		t.Errorf("robust %.4f much worse than plain %.4f with spikes",
			last.RobustRMSPE, last.PlainRMSPE)
	}
}

func TestSpectralSVDDominates(t *testing.T) {
	x := Phone(250)
	rows, err := Spectral(x, "phone250", []float64{0.10, 0.20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// §2.3: among LINEAR schemes, SVD's fitted basis dominates DCT's
		// fixed one.
		if r.SVD > r.DCT+1e-9 {
			t.Errorf("s=%.2f: SVD %.4f worse than DCT %.4f", r.S, r.SVD, r.DCT)
		}
		// Keep-largest Haar (nonlinear, per-row adaptive) handles the
		// weekly discontinuities better than keep-first-k cosines.
		if r.Wavelet > r.DCT+1e-9 {
			t.Errorf("s=%.2f: wavelet %.4f worse than DCT %.4f on spiky data", r.S, r.Wavelet, r.DCT)
		}
		// SVDD's per-cell deltas out-adapt wavelet thresholding.
		if r.SVDD > r.Wavelet+1e-9 {
			t.Errorf("s=%.2f: SVDD %.4f worse than wavelet %.4f", r.S, r.SVDD, r.Wavelet)
		}
	}
}

// wideLowRank builds a synthetic long-sequence matrix: r smooth column
// patterns with geometrically decaying weights plus a small noise floor, so
// a rank-r truncation captures almost all of the energy and every factor
// path has the same well-separated spectrum to find.
func wideLowRank(n, m, r int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	patterns := linalg.NewMatrix(r, m)
	for t := 0; t < r; t++ {
		row := patterns.Row(t)
		freq := float64(t+1) * 2 * math.Pi / float64(m)
		phase := rng.Float64() * 2 * math.Pi
		for j := range row {
			row[j] = math.Sin(freq*float64(j)+phase) + 0.2*rng.NormFloat64()
		}
	}
	x := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for t := 0; t < r; t++ {
			c := 40 * math.Pow(0.6, float64(t)) * rng.NormFloat64()
			prow := patterns.Row(t)
			for j := range row {
				row[j] += c * prow[j]
			}
		}
		for j := range row {
			row[j] += 0.1 * rng.NormFloat64()
		}
	}
	return x
}

// TestRandomizedMatchesGramRMSPE is the equivalence property the sketch
// compressor must hold: "randomized" compression reconstructs every seed
// dataset with an RMSPE within 1% of the Gram path's given enough power
// iterations, and within 5% at the library default, at every worker count —
// and the worker-sharded passes run race-clean under `make race`.
func TestRandomizedMatchesGramRMSPE(t *testing.T) {
	const k = 8
	datasets := []struct {
		name string
		x    *linalg.Matrix
	}{
		{"stocks", Stocks()},
		{"phone300", Phone(300)},
		{"wide", wideLowRank(90, 700, k, 11)},
	}
	for _, d := range datasets {
		// Gram baseline: eigendecompose C, then the standard two-pass
		// compression. Worker-count invariance of this path is already
		// pinned elsewhere, so one build suffices.
		f, err := svd.ComputeFactorsWorkers(matio.NewMem(d.x), 1)
		if err != nil {
			t.Fatalf("%s: gram factors: %v", d.name, err)
		}
		gst, err := svd.CompressWithFactorsWorkers(matio.NewMem(d.x), f, k, 1)
		if err != nil {
			t.Fatalf("%s: gram compress: %v", d.name, err)
		}
		gacc, err := Eval(matio.NewMem(d.x), gst)
		if err != nil {
			t.Fatal(err)
		}
		gram := gacc.RMSPE()

		for _, c := range []struct {
			piters int
			tol    float64
		}{{4, 0.01}, {0, 0.05}} {
			for _, workers := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/piters=%d/workers=%d", d.name, c.piters, workers), func(t *testing.T) {
					rst, err := svd.CompressRandWorkers(matio.NewMem(d.x), k, svd.RandOptions{
						Rank: k, PowerIters: c.piters, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					racc, err := Eval(matio.NewMem(d.x), rst)
					if err != nil {
						t.Fatal(err)
					}
					if rand := racc.RMSPE(); math.Abs(rand-gram) > c.tol*gram+1e-12 {
						t.Errorf("randomized RMSPE %.6f vs gram %.6f: off by %.2f%%, want ≤ %.0f%%",
							rand, gram, 100*math.Abs(rand-gram)/gram, 100*c.tol)
					}
				})
			}
		}
	}
}
