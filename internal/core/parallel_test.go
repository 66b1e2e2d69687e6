package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// parallelPhone builds a random matrix spanning several scan chunks, with
// structure (so k_opt search is non-trivial), heavy-tailed outlier cells,
// and a sprinkling of all-zero rows to exercise the §6.2 flags.
func parallelPhone(n, m int, seed int64) *linalg.Matrix {
	r := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		if r.Float64() < 0.05 {
			continue // all-zero row
		}
		row := x.Row(i)
		a, b := r.NormFloat64(), r.NormFloat64()
		for j := range row {
			row[j] = 3*a*math.Sin(float64(j)/5) + b*float64(j%11) + r.NormFloat64()
		}
		if r.Float64() < 0.10 {
			row[r.Intn(m)] += 50 * r.NormFloat64() // outlier spike
		}
	}
	return x
}

type outlier struct {
	row, col int
	delta    float64
}

func sortedOutliers(s *Store) []outlier {
	var out []outlier
	s.Deltas(func(row, col int, delta float64) {
		out = append(out, outlier{row, col, delta})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].row != out[j].row {
			return out[i].row < out[j].row
		}
		return out[i].col < out[j].col
	})
	return out
}

// TestCompressWorkersEquivalence is the tentpole guarantee: for worker
// counts 1/2/3/8, SVDD chooses the same k_opt and γ, stores the identical
// outlier set (per-cell errors are bit-identical regardless of sharding),
// flags the same zero rows, and reports SSE totals equal to reduction-order
// tolerance.
func TestCompressWorkersEquivalence(t *testing.T) {
	const n, m = 5000, 12
	x := parallelPhone(n, m, 3)
	src := matio.NewMem(x)
	// Shared factors isolate the pass-2/3 sharding: per-cell errors are then
	// bit-identical for every worker count, so the assertions below are
	// exact. (Factors recomputed at different worker counts agree only to
	// reduction-order tolerance; TestCompressWorkersFullPipeline covers that.)
	f, err := svd.ComputeFactors(src)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) *Store {
		t.Helper()
		s, err := CompressWithFactors(src, f, Options{Budget: 0.20, FlagZeroRows: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return s
	}
	serial := build(1)
	wantOutliers := sortedOutliers(serial)
	wantDiag := serial.Diagnostics()
	wantZero := serial.ZeroRows()
	for _, workers := range []int{2, 3, 8} {
		par := build(workers)
		diag := par.Diagnostics()
		if diag.ChosenK != wantDiag.ChosenK || diag.KMax != wantDiag.KMax || diag.Gamma != wantDiag.Gamma {
			t.Errorf("workers=%d: diagnostics (k=%d, kmax=%d, γ=%d) differ from serial (k=%d, kmax=%d, γ=%d)",
				workers, diag.ChosenK, diag.KMax, diag.Gamma,
				wantDiag.ChosenK, wantDiag.KMax, wantDiag.Gamma)
		}
		if len(diag.Candidates) != len(wantDiag.Candidates) {
			t.Fatalf("workers=%d: %d candidates, serial %d", workers, len(diag.Candidates), len(wantDiag.Candidates))
		}
		for ci, c := range diag.Candidates {
			wc := wantDiag.Candidates[ci]
			if c.K != wc.K || c.Gamma != wc.Gamma {
				t.Errorf("workers=%d candidate %d: (k=%d γ=%d) vs serial (k=%d γ=%d)",
					workers, ci, c.K, c.Gamma, wc.K, wc.Gamma)
			}
			if d := math.Abs(c.SSE - wc.SSE); d > 1e-12*(1+wc.SSE) {
				t.Errorf("workers=%d candidate k=%d: SSE %v vs serial %v", workers, c.K, c.SSE, wc.SSE)
			}
		}
		gotOutliers := sortedOutliers(par)
		if len(gotOutliers) != len(wantOutliers) {
			t.Fatalf("workers=%d: %d outliers, serial %d", workers, len(gotOutliers), len(wantOutliers))
		}
		for oi := range gotOutliers {
			if gotOutliers[oi] != wantOutliers[oi] {
				t.Fatalf("workers=%d: outlier %d = %+v, serial %+v",
					workers, oi, gotOutliers[oi], wantOutliers[oi])
			}
		}
		gotZero := par.ZeroRows()
		if len(gotZero) != len(wantZero) {
			t.Fatalf("workers=%d: %d zero rows, serial %d", workers, len(gotZero), len(wantZero))
		}
		for zi := range gotZero {
			if gotZero[zi] != wantZero[zi] {
				t.Fatalf("workers=%d: zero row %d = %d, serial %d", workers, zi, gotZero[zi], wantZero[zi])
			}
		}
	}
}

// TestCompressWorkersUBitIdentical checks that, given the same pass-1
// factors, the stored U rows coming out of the sharded passes 2+3 match the
// serial ones bit-for-bit. (Recomputing the factors at a different worker
// count perturbs C within reduction-order tolerance, so bit-identity is
// only promised downstream of shared factors.)
func TestCompressWorkersUBitIdentical(t *testing.T) {
	const n, m = 5000, 10
	x := parallelPhone(n, m, 8)
	src := matio.NewMem(x)
	f, err := svd.ComputeFactors(src)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := CompressWithFactors(src, f, Options{Budget: 0.15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompressWithFactors(src, f, Options{Budget: 0.15, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.K() != par.K() {
		t.Fatalf("k_opt differs: %d vs %d", serial.K(), par.K())
	}
	a := make([]float64, serial.K())
	b := make([]float64, par.K())
	for i := 0; i < n; i++ {
		if err := serial.Base().URow(i, a); err != nil {
			t.Fatal(err)
		}
		if err := par.Base().URow(i, b); err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("U[%d][%d] not bit-identical: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

// TestCompressWorkersFullPipeline runs the whole 3-pass algorithm — pass 1
// included — at several worker counts. Recomputed factors only agree to
// reduction-order tolerance, so the assertions here are structural: same
// k_opt, same γ, same zero-row flags.
func TestCompressWorkersFullPipeline(t *testing.T) {
	const n, m = 5000, 12
	x := parallelPhone(n, m, 21)
	src := matio.NewMem(x)
	serial, err := Compress(src, Options{Budget: 0.20, FlagZeroRows: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := Compress(src, Options{Budget: 0.20, FlagZeroRows: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.K() != serial.K() || par.NumOutliers() != serial.NumOutliers() {
			t.Errorf("workers=%d: (k=%d, γ=%d) vs serial (k=%d, γ=%d)",
				workers, par.K(), par.NumOutliers(), serial.K(), serial.NumOutliers())
		}
		if got, want := par.ZeroRows(), serial.ZeroRows(); len(got) != len(want) {
			t.Errorf("workers=%d: %d zero rows, serial %d", workers, len(got), len(want))
		}
	}
}

// TestCompressWorkersOnFile runs the full pipeline against a disk-backed
// source and checks the pass accounting: two logical passes (factors plus
// the fused scoring/emission scan) regardless of worker count.
func TestCompressWorkersOnFile(t *testing.T) {
	const n, m = 3000, 8
	x := parallelPhone(n, m, 5)
	path := t.TempDir() + "/x.smx"
	if err := matio.WriteMatrix(path, x); err != nil {
		t.Fatal(err)
	}
	f, err := matio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Compress(f, Options{Budget: 0.20, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Passes(); got != 2 {
		t.Errorf("Passes = %d, want 2 (factors + fused scoring/emission)", got)
	}
	if got := f.Stats().RowReads(); got != int64(2*n) {
		t.Errorf("RowReads = %d, want %d", got, 2*n)
	}
	mem, err := Compress(matio.NewMem(x), Options{Budget: 0.20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != mem.K() || s.NumOutliers() != mem.NumOutliers() {
		t.Errorf("file path (k=%d, outliers=%d) differs from mem serial (k=%d, outliers=%d)",
			s.K(), s.NumOutliers(), mem.K(), mem.NumOutliers())
	}
}

// TestWorkersEquivalentFactorsReuse mirrors how the experiments sweep
// budgets: factors computed once, CompressWithFactors called per budget.
// Pass 2 is one serial scan whatever Workers says, so for fixed factors the
// serialized store — U, deltas, and every CandidateStat.SSE — is the same
// bytes at every worker count.
func TestWorkersEquivalentFactorsReuse(t *testing.T) {
	const n, m = 4000, 10
	x := parallelPhone(n, m, 13)
	src := matio.NewMem(x)
	f, err := svd.ComputeFactorsWorkers(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(budget float64, workers int) []byte {
		t.Helper()
		s, err := CompressWithFactors(src, f, Options{Budget: budget, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := store.NewWriter(&buf)
		if err := s.EncodePayload(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, budget := range []float64{0.25, 0.40} {
		want := payload(budget, 1)
		for _, workers := range []int{2, 8} {
			if !bytes.Equal(payload(budget, workers), want) {
				t.Errorf("budget %v: store at workers=%d is not byte-identical to workers=1", budget, workers)
			}
		}
	}
}

// TestFactorsOfWrongWidthRejected: 8-column factors against a 12-column
// source used to panic with index out of range inside the scan.
func TestFactorsOfWrongWidthRejected(t *testing.T) {
	f, err := svd.ComputeFactors(matio.NewMem(parallelPhone(50, 8, 1)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompressWithFactors(matio.NewMem(parallelPhone(50, 12, 2)), f, Options{Budget: 0.5})
	if !errors.Is(err, seqerr.ErrOutOfRange) {
		t.Errorf("err = %v, want ErrOutOfRange", err)
	}
}
