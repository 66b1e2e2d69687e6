package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/metrics"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// phoneSmall returns a modest phone-like matrix for tests.
func phoneSmall(n int) *linalg.Matrix {
	cfg := dataset.DefaultPhoneConfig(n)
	cfg.M = 60
	return dataset.GeneratePhone(cfg)
}

func TestCompressValidation(t *testing.T) {
	x := phoneSmall(20)
	if _, err := Compress(matio.NewMem(x), Options{Budget: 0}); !errors.Is(err, ErrBadBudget) {
		t.Errorf("budget 0: %v", err)
	}
	if _, err := Compress(matio.NewMem(x), Options{Budget: 1.5}); !errors.Is(err, ErrBadBudget) {
		t.Errorf("budget > 1: %v", err)
	}
	if _, err := Compress(matio.NewMem(x), Options{Budget: 1e-9}); !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("tiny budget: %v", err)
	}
}

func TestCompressIsTwoPasses(t *testing.T) {
	// The fused scoring+emission pass folds the paper's pass 3 into pass 2:
	// factors (1) + fused scan (1) = 2 streaming passes.
	x := phoneSmall(40)
	mem := matio.NewMem(x)
	if _, err := Compress(mem, Options{Budget: 0.10}); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Passes(); got != 2 {
		t.Errorf("SVDD used %d passes, want exactly 2 (fused pass 2+3)", got)
	}
}

func TestFusedUMatchesThreePassReference(t *testing.T) {
	// The fused scan's U must be byte-identical to the paper's literal pass
	// 3 — the separate projection scan svd.CompressWithFactorsWorkers still
	// implements — run over the same factors at the chosen cutoff.
	x := phoneSmall(40)
	mem := matio.NewMem(x)
	f, err := svd.ComputeFactors(mem)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := CompressWithFactors(mem, f, Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := svd.CompressWithFactorsWorkers(mem, f, fused.Diagnostics().ChosenK, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fused.K() != ref.K() {
		t.Fatalf("fused k=%d, reference k=%d", fused.K(), ref.K())
	}
	got := make([]float64, fused.K())
	want := make([]float64, ref.K())
	for i := 0; i < 40; i++ {
		if err := fused.Base().URow(i, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.URow(i, want); err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("U[%d][%d]: fused %g != three-pass %g", i, j, got[j], want[j])
			}
		}
	}
}

func TestRandomizedCompressIsTwoPasses(t *testing.T) {
	// Acceptance criterion: SVDD with the randomized compressor makes
	// exactly 2 streaming passes — 1 sketch pass (single-pass Nyström
	// recovery) + 1 fused scoring/emission pass.
	x := phoneSmall(60)
	mem := matio.NewMem(x)
	s, err := Compress(mem, Options{Budget: 0.10, Compressor: svd.CompressorRandomized})
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Passes(); got != 2 {
		t.Errorf("randomized SVDD used %d passes, want exactly 2", got)
	}
	if s.K() < 1 {
		t.Errorf("randomized SVDD chose k=%d", s.K())
	}
	// Unknown compressor names must fail loudly.
	if _, err := Compress(matio.NewMem(x), Options{Budget: 0.10, Compressor: "bogus"}); !errors.Is(err, ErrBadCompressor) {
		t.Errorf("bogus compressor: %v", err)
	}
}

func TestBudgetRespected(t *testing.T) {
	x := phoneSmall(80)
	for _, budget := range []float64{0.05, 0.10, 0.20} {
		s, err := Compress(matio.NewMem(x), Options{Budget: budget})
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if got := store.SpaceRatio(s); got > budget+1e-9 {
			t.Errorf("space ratio %.4f exceeds budget %.2f", got, budget)
		}
	}
}

func TestOutlierCellsReconstructExactly(t *testing.T) {
	x := phoneSmall(60)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumOutliers() == 0 {
		t.Skip("no outliers stored at this budget")
	}
	scale := x.MaxAbs()
	s.Deltas(func(row, col int, delta float64) {
		got, err := s.Cell(row, col)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-x.At(row, col)) > 1e-9*scale {
			t.Errorf("outlier cell (%d,%d): got %v, want %v", row, col, got, x.At(row, col))
		}
	})
}

func TestSVDDBeatsPlainSVDAtEqualSpace(t *testing.T) {
	x := phoneSmall(100)
	mem := matio.NewMem(x)
	budget := 0.10

	svdd, err := Compress(mem, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := svd.Compress(mem, svd.KForBudget(x.Rows(), x.Cols(), budget))
	if err != nil {
		t.Fatal(err)
	}

	rmspe := func(s store.Store) float64 {
		var acc metrics.Accumulator
		row := make([]float64, x.Cols())
		for i := 0; i < x.Rows(); i++ {
			got, err := s.Row(i, row)
			if err != nil {
				t.Fatal(err)
			}
			acc.AddRow(i, x.Row(i), got)
		}
		return acc.RMSPE()
	}
	if es, ep := rmspe(svdd), rmspe(plain); es > ep+1e-12 {
		t.Errorf("SVDD RMSPE %.5f worse than plain SVD %.5f at equal space", es, ep)
	}
}

func TestSVDDBoundsWorstCase(t *testing.T) {
	x := phoneSmall(100)
	mem := matio.NewMem(x)
	budget := 0.10
	svdd, _ := Compress(mem, Options{Budget: budget})
	plain, _ := svd.Compress(mem, svd.KForBudget(x.Rows(), x.Cols(), budget))

	worst := func(s store.Store) float64 {
		var acc metrics.Accumulator
		row := make([]float64, x.Cols())
		for i := 0; i < x.Rows(); i++ {
			got, _ := s.Row(i, row)
			acc.AddRow(i, x.Row(i), got)
		}
		w, _, _ := acc.WorstAbs()
		return w
	}
	ws, wp := worst(svdd), worst(plain)
	if svdd.NumOutliers() > 0 && ws >= wp {
		t.Errorf("SVDD worst-case %.3f not better than plain SVD %.3f", ws, wp)
	}
}

func TestKOptNotLargerThanKMaxAndDiagConsistent(t *testing.T) {
	x := phoneSmall(80)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Diagnostics()
	if d.ChosenK < 1 || d.ChosenK > d.KMax {
		t.Errorf("ChosenK %d outside [1, %d]", d.ChosenK, d.KMax)
	}
	if d.ChosenK != s.K() {
		t.Errorf("diag ChosenK %d != store K %d", d.ChosenK, s.K())
	}
	if d.Gamma != s.NumOutliers() {
		t.Errorf("diag Gamma %d != stored outliers %d", d.Gamma, s.NumOutliers())
	}
	if len(d.Candidates) == 0 {
		t.Fatal("no candidate stats recorded")
	}
	// The chosen k must have the minimal ε among candidates.
	var chosenEps float64
	found := false
	for _, c := range d.Candidates {
		if c.K == d.ChosenK {
			chosenEps = c.Eps
			found = true
		}
	}
	if !found {
		t.Fatal("chosen k not among candidates")
	}
	for _, c := range d.Candidates {
		if c.Eps < chosenEps-1e-9 {
			t.Errorf("candidate k=%d has smaller ε (%.4g) than chosen k=%d (%.4g)",
				c.K, c.Eps, d.ChosenK, chosenEps)
		}
	}
}

func TestForceK(t *testing.T) {
	x := phoneSmall(60)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15, ForceK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 2 {
		t.Errorf("ForceK: K = %d, want 2", s.K())
	}
}

func TestCandidateKs(t *testing.T) {
	x := phoneSmall(60)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.15, CandidateKs: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Diagnostics()
	if len(d.Candidates) != 2 {
		t.Fatalf("candidates = %v", d.Candidates)
	}
	if d.ChosenK != 1 && d.ChosenK != 3 {
		t.Errorf("ChosenK %d not in {1,3}", d.ChosenK)
	}
}

func TestCandidateThinningKeepsEndpoints(t *testing.T) {
	x := phoneSmall(120)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.20, MaxQueueItems: 100})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Diagnostics()
	if d.Candidates[0].K != 1 {
		t.Errorf("first candidate = %d, want 1", d.Candidates[0].K)
	}
	if d.Candidates[len(d.Candidates)-1].K != d.KMax {
		t.Errorf("last candidate = %d, want kmax=%d", d.Candidates[len(d.Candidates)-1].K, d.KMax)
	}
}

func TestRowMatchesCells(t *testing.T) {
	x := phoneSmall(40)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	row, err := s.Row(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range row {
		c, _ := s.Cell(7, j)
		if row[j] != c {
			t.Fatalf("Row/Cell disagree at col %d", j)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	x := phoneSmall(50)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := store.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gs, ok := got.(*Store)
	if !ok {
		t.Fatalf("decoded type %T", got)
	}
	if gs.K() != s.K() || gs.NumOutliers() != s.NumOutliers() {
		t.Error("structure changed across serialization")
	}
	if gs.StoredNumbers() != s.StoredNumbers() {
		t.Error("StoredNumbers changed across serialization")
	}
	d1, d2 := s.Diagnostics(), gs.Diagnostics()
	if d1.ChosenK != d2.ChosenK || d1.KMax != d2.KMax || len(d1.Candidates) != len(d2.Candidates) {
		t.Error("diagnostics not preserved")
	}
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			a, _ := s.Cell(i, j)
			b, err := gs.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("cell (%d,%d) differs after round trip", i, j)
			}
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	x := phoneSmall(30)
	s, _ := Compress(matio.NewMem(x), Options{Budget: 0.10})
	var buf bytes.Buffer
	if err := store.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := store.Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated container accepted")
	}
}

// Property: SVDD residual error ε decreases (or stays equal) as budget grows.
func TestErrorMonotoneInBudgetProperty(t *testing.T) {
	x := phoneSmall(50)
	mem := matio.NewMem(x)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b1 := 0.04 + 0.2*r.Float64()
		b2 := b1 + 0.05
		sse := func(budget float64) float64 {
			s, err := Compress(mem, Options{Budget: budget})
			if err != nil {
				return math.Inf(1)
			}
			var acc metrics.Accumulator
			row := make([]float64, x.Cols())
			for i := 0; i < x.Rows(); i++ {
				got, _ := s.Row(i, row)
				acc.AddRow(i, x.Row(i), got)
			}
			return acc.SSE()
		}
		return sse(b2) <= sse(b1)*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: every non-outlier cell matches the plain-SVD value at k_opt.
func TestNonOutlierCellsMatchBase(t *testing.T) {
	x := phoneSmall(40)
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	outlier := map[[2]int]bool{}
	s.Deltas(func(r, c int, _ float64) { outlier[[2]int{r, c}] = true })
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			if outlier[[2]int{i, j}] {
				continue
			}
			a, _ := s.Cell(i, j)
			b, _ := s.Base().Cell(i, j)
			if a != b {
				t.Fatalf("non-outlier cell (%d,%d) diverges from base", i, j)
			}
		}
	}
}

func TestToyMatrixLossless(t *testing.T) {
	// The toy matrix has rank 2; a generous budget admits the full rank and
	// reconstruction must be (numerically) exact with zero outliers needed.
	x := dataset.Toy()
	s, err := Compress(matio.NewMem(x), Options{Budget: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			got, _ := s.Cell(i, j)
			if math.Abs(got-x.At(i, j)) > 1e-9 {
				t.Errorf("cell (%d,%d) = %v, want %v", i, j, got, x.At(i, j))
			}
		}
	}
}

// TestDecisionsMatchPublishedResults pins what SVDD decides and how well it
// reconstructs on the datasets whose numbers EXPERIMENTS.md prints (to the
// precision printed there), plus the benchmark's 2048-row phone fixture: a
// change of eigensolver or of the pass-2 queues must move none of them.
func TestDecisionsMatchPublishedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("compresses two 2000×366 matrices")
	}
	stocks := dataset.GenerateStocks(dataset.DefaultStocksConfig())
	for _, c := range []struct {
		name              string
		x                 *linalg.Matrix
		budget            float64
		kmax, kopt, gamma int
		rmspePct          string
	}{
		{"phone2000", dataset.GeneratePhone(dataset.DefaultPhoneConfig(2000)), 0.10, 30, 4, 21244, "8.05"},
		{"phone2048", dataset.GeneratePhone(dataset.DefaultPhoneConfig(2048)), 0.10, 31, 4, 21765, "8.06"},
		{"stocks", stocks, 0.05, 4, 4, 132, "4.09"},
		{"stocks", stocks, 0.10, 9, 9, 95, "2.54"},
		{"stocks", stocks, 0.25, 23, 23, 154, "1.46"},
	} {
		s, err := Compress(matio.NewMem(c.x), Options{Budget: c.budget})
		if err != nil {
			t.Fatalf("%s at %v: %v", c.name, c.budget, err)
		}
		d := s.Diagnostics()
		if d.KMax != c.kmax || d.ChosenK != c.kopt || d.Gamma != c.gamma {
			t.Errorf("%s at %v: k_max=%d k_opt=%d γ=%d, published k_max=%d k_opt=%d γ=%d",
				c.name, c.budget, d.KMax, d.ChosenK, d.Gamma, c.kmax, c.kopt, c.gamma)
		}
		var acc metrics.Accumulator
		row := make([]float64, c.x.Cols())
		for i := 0; i < c.x.Rows(); i++ {
			got, err := s.Row(i, row)
			if err != nil {
				t.Fatal(err)
			}
			acc.AddRow(i, c.x.Row(i), got)
		}
		if got := fmt.Sprintf("%.2f", 100*acc.RMSPE()); got != c.rmspePct {
			t.Errorf("%s at %v: RMSPE %s%%, published %s%%", c.name, c.budget, got, c.rmspePct)
		}
	}

	// Table 1 / Eq. 5: rank 2, σ = 9.64, 5.29, and the two day patterns
	// with the signs the paper prints.
	f, err := svd.ComputeFactors(matio.NewMem(dataset.Toy()))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range append(append(append([]float64{}, f.Sigma...), f.V.Col(0)...), f.V.Col(1)...) {
		got = append(got, fmt.Sprintf("%.2f", math.Round(v*100)/100+0)) // +0: print −0 as 0
	}
	want := "9.64 5.29 0.58 0.58 0.58 0.00 0.00 0.00 0.00 0.00 0.71 0.71"
	if s := strings.Join(got, " "); f.Rank() != 2 || s != want {
		t.Errorf("toy: rank %d, σ and patterns %s; published rank 2, %s", f.Rank(), s, want)
	}
}
