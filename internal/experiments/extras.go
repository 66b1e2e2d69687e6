package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"seqstore/internal/core"
	"seqstore/internal/datacube"
	"seqstore/internal/dataset"
	"seqstore/internal/gzipref"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/metrics"
	"seqstore/internal/query"
	"seqstore/internal/sampling"
	"seqstore/internal/svd"
	"seqstore/internal/viz"
)

// GzipRow is the lossless-reference result for one dataset.
type GzipRow struct {
	Dataset     string
	BinaryRatio float64 // DEFLATE over raw float64 bytes
	TextRatio   float64 // DEFLATE over a 2-decimal text rendering
}

// GzipRef reproduces the §5.1 reference point: the space a lossless
// Lempel-Ziv compressor needs (the paper reports s ≈ 25%) — with no random
// access at all.
func GzipRef(datasets map[string]*linalg.Matrix, w io.Writer) ([]GzipRow, error) {
	tw := newTable(w)
	fmt.Fprintln(tw, "gzip (DEFLATE) lossless reference — no random access")
	fmt.Fprintln(tw, "dataset\tbinary s\ttext s\t")
	var rows []GzipRow
	for _, name := range sortedKeys(datasets) {
		x := datasets[name]
		rb, err := gzipref.Ratio(matio.NewMem(x), 0)
		if err != nil {
			return nil, err
		}
		rt, err := gzipref.RatioText(matio.NewMem(x), 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GzipRow{Dataset: name, BinaryRatio: rb, TextRatio: rt})
		fmt.Fprintf(tw, "%s\t%s\t%s\t\n", name, pct(rb), pct(rt))
	}
	tw.Flush()
	return rows, nil
}

// KOptPoint is the residual error of one candidate cutoff in the SVDD
// search.
type KOptPoint struct {
	K      int
	Gamma  int
	Eps    float64
	Chosen bool
}

// KOpt is the ablation for the k_opt selection (§4.2): it exposes the
// ε_k curve the SVDD algorithm minimizes — how much error remains if k
// principal components are kept and the rest of the budget repairs the
// worst cells.
func KOpt(x *linalg.Matrix, budget float64, w io.Writer) ([]KOptPoint, error) {
	if budget <= 0 {
		budget = 0.10
	}
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: budget})
	if err != nil {
		return nil, err
	}
	d := s.Diagnostics()
	var pts []KOptPoint
	tw := newTable(w)
	fmt.Fprintf(tw, "k_opt search at %s budget (k_max=%d, chosen k=%d, %d deltas)\n",
		pct(budget), d.KMax, d.ChosenK, d.Gamma)
	fmt.Fprintln(tw, "k\tγ_k\tε_k\t")
	for _, c := range d.Candidates {
		p := KOptPoint{K: c.K, Gamma: c.Gamma, Eps: c.Eps, Chosen: c.K == d.ChosenK}
		pts = append(pts, p)
		mark := ""
		if p.Chosen {
			mark = "  ← k_opt"
		}
		fmt.Fprintf(tw, "%d\t%d\t%.6g%s\t\n", p.K, p.Gamma, p.Eps, mark)
	}
	tw.Flush()
	return pts, nil
}

// SamplingRow compares SVDD and uniform sampling on aggregate queries.
type SamplingRow struct {
	S            float64
	SVDDQErr     float64
	SamplingQErr float64
	Unanswerable int // queries whose selection held no sampled cell
}

// SamplingComparison reproduces the §5.2 remark that simple uniform
// sampling performs poorly against SVDD for aggregate queries (and cannot
// answer single-cell queries at all).
func SamplingComparison(x *linalg.Matrix, budgets []float64, nQueries int, w io.Writer) ([]SamplingRow, error) {
	if len(budgets) == 0 {
		budgets = []float64{0.02, 0.05, 0.10}
	}
	if nQueries <= 0 {
		nQueries = 50
	}
	mem := matio.NewMem(x)
	n, m := x.Dims()
	factors, err := svd.ComputeFactors(mem)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(99))
	sels := make([]query.Selection, nQueries)
	truths := make([]float64, nQueries)
	for q := range sels {
		// Narrower selections than Fig9 — where sampling hurts most.
		sels[q] = query.RandomSelection(rng, n, m, 0.01)
		truths[q], err = query.EvaluateMatrix(x, query.Avg, sels[q])
		if err != nil {
			return nil, err
		}
	}
	var rows []SamplingRow
	tw := newTable(w)
	fmt.Fprintf(tw, "SVDD vs uniform sampling, aggregate avg() over ~1%% of cells (%d queries)\n", nQueries)
	fmt.Fprintln(tw, "s\tsvdd Qerr\tsampling Qerr\tno-sample queries\t")
	for _, b := range budgets {
		sd, err := buildSVDD(mem, factors, b)
		if err != nil {
			return nil, err
		}
		smp, err := sampling.New(mem, b, 7)
		if err != nil {
			return nil, err
		}
		row := SamplingRow{S: b}
		var sCount int
		for q, sel := range sels {
			est, err := query.Evaluate(sd, query.Avg, sel)
			if err != nil {
				return nil, err
			}
			row.SVDDQErr += metrics.QueryError(truths[q], est)
			if sest, err := smp.EstimateAvg(sel.Rows, sel.Cols); err == nil {
				row.SamplingQErr += metrics.QueryError(truths[q], sest)
				sCount++
			} else {
				row.Unanswerable++
			}
		}
		row.SVDDQErr /= float64(nQueries)
		if sCount > 0 {
			row.SamplingQErr /= float64(sCount)
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%.4f%%\t%.4f%%\t%d\t\n",
			pct(b), 100*row.SVDDQErr, 100*row.SamplingQErr, row.Unanswerable)
	}
	tw.Flush()
	return rows, nil
}

// Toy prints the worked example of §3.3 (Table 1, Eq. 5): the spectral
// decomposition of the 7×5 customer-day matrix, which splits into a
// "weekday/business" and a "weekend/residential" pattern.
func Toy(w io.Writer) (*svd.Factors, error) {
	if w == nil {
		w = io.Discard
	}
	x := dataset.Toy()
	mem := matio.NewMem(x)
	f, err := svd.ComputeFactors(mem)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Table 1 / Eq. 5: toy matrix spectral decomposition")
	fmt.Fprintf(w, "rank %d, singular values:", f.Rank())
	for _, s := range f.Sigma {
		fmt.Fprintf(w, " %.2f", s)
	}
	fmt.Fprintln(w)
	tw := newTable(w)
	fmt.Fprintln(tw, "day\tpattern1 (weekday)\tpattern2 (weekend)\t")
	for j := 0; j < x.Cols(); j++ {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t\n", dataset.ToyColLabels[j], f.V.At(j, 0), f.V.At(j, 1))
	}
	tw.Flush()
	tw = newTable(w)
	fmt.Fprintln(tw, "customer\tu1\tu2\t")
	err = svd.ComputeU(mem, f, 2, func(i int, urow []float64) error {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t\n", dataset.ToyRowLabels[i], urow[0], urow[1])
		return nil
	})
	if err != nil {
		return nil, err
	}
	tw.Flush()
	return f, nil
}

// Viz renders the Figure 11 scatter plots: each sequence projected into
// 2-d SVD space.
func Viz(datasets map[string]*linalg.Matrix, w io.Writer) error {
	if w == nil {
		w = io.Discard
	}
	for _, name := range sortedKeys(datasets) {
		x := datasets[name]
		pts, err := viz.Project(matio.NewMem(x))
		if err != nil {
			return fmt.Errorf("experiments: viz %s: %w", name, err)
		}
		fmt.Fprintf(w, "Figure 11 (%s): sequences in 2-d SVD space\n", name)
		fmt.Fprint(w, viz.Scatter(pts, 72, 20))
		out := viz.Outliers(pts, 5)
		fmt.Fprintf(w, "farthest-out rows (candidate outliers): %v\n\n", out)
	}
	return nil
}

func sortedKeys(m map[string]*linalg.Matrix) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CubeRow reports DataCube compression under one grouping.
type CubeRow struct {
	Grouping string
	Rows     int
	Cols     int
	RMSPE    float64
	Space    float64
}

// Cube reproduces the §6.1 extension: a product×store×week sales cube
// flattened two ways and compressed with SVDD, plus the 3-mode PCA
// (Tucker) alternative the paper poses as an open question — "it is an
// interesting open question to find out the relative benefits of each
// alternative". Both flattenings answer the same 3-d cell queries;
// squarer matrices compress better.
func Cube(cfg datacube.SalesConfig, budget float64, w io.Writer) ([]CubeRow, error) {
	if budget <= 0 {
		budget = 0.10
	}
	cube, err := datacube.GenerateSales(cfg)
	if err != nil {
		return nil, err
	}
	var rows []CubeRow
	tw := newTable(w)
	fmt.Fprintf(tw, "DataCube %d×%d×%d at %s budget\n", cfg.Products, cfg.Stores, cfg.Weeks, pct(budget))
	fmt.Fprintln(tw, "method\tshape\tRMSPE\tspace\t")
	for _, g := range []datacube.Grouping{datacube.Group12, datacube.Group23} {
		flat := cube.Flatten(g)
		mem := matio.NewMem(flat)
		sd, err := core.Compress(mem, core.Options{Budget: budget})
		if err != nil {
			return nil, err
		}
		acc, err := Eval(mem, sd)
		if err != nil {
			return nil, err
		}
		r, c := flat.Dims()
		row := CubeRow{
			Grouping: "svdd " + g.String(), Rows: r, Cols: c,
			RMSPE: acc.RMSPE(),
			Space: float64(sd.StoredNumbers()) / (float64(r) * float64(c)),
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%d×%d\t%.2f%%\t%s\t\n", row.Grouping, r, c, 100*row.RMSPE, pct(row.Space))
	}

	// 3-mode PCA at the same budget.
	d1, d2, d3 := cube.Dims()
	r1, r2, r3 := datacube.TuckerRanksForBudget(d1, d2, d3, budget)
	tk, err := datacube.DecomposeTucker(cube, r1, r2, r3, 1)
	if err != nil {
		return nil, err
	}
	var acc metrics.Accumulator
	for i := 0; i < d1; i++ {
		for j := 0; j < d2; j++ {
			for k := 0; k < d3; k++ {
				got, err := tk.Cell(i, j, k)
				if err != nil {
					return nil, err
				}
				acc.Add(i*d2+j, k, cube.At(i, j, k), got)
			}
		}
	}
	row := CubeRow{
		Grouping: fmt.Sprintf("3-mode pca (%d,%d,%d)", r1, r2, r3),
		Rows:     d1 * d2, Cols: d3,
		RMSPE: acc.RMSPE(),
		Space: float64(tk.StoredNumbers()) / (float64(d1) * float64(d2) * float64(d3)),
	}
	rows = append(rows, row)
	fmt.Fprintf(tw, "%s\t%d×%d×%d\t%.2f%%\t%s\t\n", row.Grouping, d1, d2, d3, 100*row.RMSPE, pct(row.Space))
	tw.Flush()
	return rows, nil
}
