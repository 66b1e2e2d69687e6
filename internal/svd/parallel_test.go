package svd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
)

// plainSource hides the RangeScanner capability of a Mem source, forcing
// the driver's single-ScanRows path.
type plainSource struct{ mem *matio.Mem }

func (p *plainSource) Dims() (int, int) { return p.mem.Dims() }
func (p *plainSource) ScanRows(fn func(i int, row []float64) error) error {
	return p.mem.ScanRows(fn)
}

func frobenius(m *linalg.Matrix) float64 {
	var s float64
	for _, v := range m.Data() {
		s += v * v
	}
	return math.Sqrt(s)
}

// parallelTestSources returns Mem- and File-backed views of one random
// matrix large enough to span several scan chunks.
func parallelTestSources(t *testing.T, n, m int) map[string]matio.RowSource {
	t.Helper()
	x := randMatrix(rand.New(rand.NewSource(11)), n, m)
	path := filepath.Join(t.TempDir(), "x.smx")
	if err := matio.WriteMatrix(path, x); err != nil {
		t.Fatal(err)
	}
	f, err := matio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]matio.RowSource{"mem": matio.NewMem(x), "file": f}
}

// TestScanSharded pins the driver's sharding decision: how many states come
// back, in worker order, which rows each worker saw and in what order, and
// that the whole scan is one logical pass reading every row once.
func TestScanSharded(t *testing.T) {
	const chunk = matio.DefaultChunkRows
	cases := []struct {
		name       string
		n, workers int
		kind       string // "mem", "file", or "plain" (no ScanRowsRange)
		wantStates int
	}{
		{"serial", 5*chunk + 7, 1, "mem", 1},
		{"round-robin", 5*chunk + 7, 2, "mem", 2},
		{"uneven", 5*chunk + 7, 3, "file", 3},
		{"clamped to chunks", 3 * chunk, 8, "mem", 3},
		{"below one chunk", chunk - 1, 4, "file", 1},
		{"empty", 0, 4, "mem", 1},
		{"not a RangeScanner", 5 * chunk, 4, "plain", 1},
		{"default workers", 2 * chunk, 0, "mem", min(2, runtime.GOMAXPROCS(0))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := linalg.NewMatrix(tc.n, 2)
			for i := 0; i < tc.n; i++ {
				x.Set(i, 0, float64(i))
			}
			mem := matio.NewMem(x)
			var src matio.RowSource = mem
			stats := mem.Stats()
			switch tc.kind {
			case "plain":
				src = &plainSource{mem}
			case "file":
				path := filepath.Join(t.TempDir(), "x.smx")
				if err := matio.WriteMatrix(path, x); err != nil {
					t.Fatal(err)
				}
				f, err := matio.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				src, stats = f, f.Stats()
			}
			states, err := scanSharded(src, tc.workers,
				func() *[]int { return new([]int) },
				func(seen *[]int, i int, row []float64) error {
					if row[0] != float64(i) {
						t.Errorf("row %d delivered with payload %v", i, row[0])
					}
					*seen = append(*seen, i)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(states) != tc.wantStates {
				t.Fatalf("%d states, want %d", len(states), tc.wantStates)
			}
			chunks := matio.Chunks(tc.n, 0)
			for w, seen := range states {
				var want []int
				for ci := w; ci < len(chunks); ci += len(states) {
					for i := chunks[ci].Start; i < chunks[ci].End; i++ {
						want = append(want, i)
					}
				}
				if !slices.Equal(*seen, want) {
					t.Errorf("worker %d of %d saw %d rows, want chunks %d, %d, … (%d rows) in order",
						w, len(states), len(*seen), w, w+len(states), len(want))
				}
			}
			if got := stats.Passes(); got != 1 {
				t.Errorf("Passes = %d, want 1", got)
			}
			if got := stats.RowReads(); got != int64(tc.n) {
				t.Errorf("RowReads = %d, want %d", got, tc.n)
			}
		})
	}
}

// trackedSource counts the range scans in flight, so a test can tell
// whether a driver returned while one of its workers was still scanning.
type trackedSource struct {
	*matio.Mem
	active atomic.Int32
}

func (s *trackedSource) ScanRowsRange(start, end int, fn func(i int, row []float64) error) error {
	s.active.Add(1)
	defer s.active.Add(-1)
	return s.Mem.ScanRowsRange(start, end, fn)
}

func TestScanShardedReturnsWorkerErrorAfterAllExit(t *testing.T) {
	const chunk = matio.DefaultChunkRows
	src := &trackedSource{Mem: matio.NewMem(linalg.NewMatrix(9*chunk, 2))}
	sentinel := errors.New("row 5 of chunk 2")
	var returned atomic.Bool
	states, err := scanSharded(src, 3,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int, _ []float64) error {
			if returned.Load() {
				t.Error("row func called after the driver returned")
			}
			if i == 2*chunk+5 { // chunk 2 is worker 2's first
				return sentinel
			}
			return nil
		})
	returned.Store(true)
	if err != sentinel || states != nil {
		t.Errorf("got (%v, %v), want (nil, the worker's error unwrapped)", states, err)
	}
	if n := src.active.Load(); n != 0 {
		t.Errorf("%d range scans still running after the driver returned", n)
	}
}

// TestAccumulateCSymmetricAndMatchesNaive holds the blocked pass 1 at one
// worker to the naive full accumulation, bit for bit: on dense rows, and on
// sparse ones — zero rows, scattered zeros and −0 entries — at N ≡ 0, 1, 2 and
// 3 (mod 4), so every block size and a final partial block are covered.
func TestAccumulateCSymmetricAndMatchesNaive(t *testing.T) {
	sparse := func(seed int64, n int) *linalg.Matrix {
		r := rand.New(rand.NewSource(seed))
		x := randMatrix(r, n, 9)
		for i := 0; i < n; i++ {
			row := x.Row(i)
			if r.Intn(5) == 0 {
				clear(row)
				continue
			}
			for j := range row {
				switch r.Intn(6) {
				case 0:
					row[j] = 0
				case 1:
					row[j] = math.Copysign(0, -1)
				}
			}
		}
		return x
	}
	cases := map[string]*linalg.Matrix{
		"dense n=200": randMatrix(rand.New(rand.NewSource(5)), 200, 9),
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 200, 201, 202, 203} {
		cases[fmt.Sprintf("sparse n=%d", n)] = sparse(int64(n), n)
	}
	for name, x := range cases {
		n, m := x.Dims()
		c, err := AccumulateCWorkers(matio.NewMem(x), 1)
		if err != nil {
			t.Fatal(err)
		}
		// Naive full accumulation in the same row-major order: the upper
		// triangle + mirror must reproduce it bit-for-bit, since x_j·x_l and
		// x_l·x_j are the same product added in the same row order.
		naive := linalg.NewMatrix(m, m)
		for i := 0; i < n; i++ {
			row := x.Row(i)
			for j, vj := range row {
				if vj == 0 {
					continue
				}
				nrow := naive.Row(j)
				for l, vl := range row {
					nrow[l] += vj * vl
				}
			}
		}
		for j := 0; j < m; j++ {
			for l := 0; l < m; l++ {
				if math.Float64bits(c.At(j, l)) != math.Float64bits(naive.At(j, l)) {
					t.Fatalf("%s: C[%d][%d] = %v, naive %v", name, j, l, c.At(j, l), naive.At(j, l))
				}
				if c.At(j, l) != c.At(l, j) {
					t.Fatalf("%s: C not symmetric at (%d, %d)", name, j, l)
				}
			}
		}
	}
}

func TestAccumulateCWorkersEquivalence(t *testing.T) {
	const n, m = 5000, 12
	for name, src := range parallelTestSources(t, n, m) {
		serial, err := AccumulateCWorkers(src, 1)
		if err != nil {
			t.Fatal(err)
		}
		norm := frobenius(serial)
		for _, workers := range []int{2, 3, 8} {
			par, err := AccumulateCWorkers(src, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			var diff float64
			sd, pd := serial.Data(), par.Data()
			for i := range sd {
				d := sd[i] - pd[i]
				diff += d * d
			}
			if math.Sqrt(diff) > 1e-12*norm {
				t.Errorf("%s workers=%d: ‖C_par − C_serial‖ = %g > 1e-12·‖C‖ (%g)",
					name, workers, math.Sqrt(diff), 1e-12*norm)
			}
		}
	}
}

func TestAccumulateCWorkersCountsOnePass(t *testing.T) {
	const n, m = 3000, 6
	x := randMatrix(rand.New(rand.NewSource(2)), n, m)
	src := matio.NewMem(x)
	for _, workers := range []int{1, 4} {
		src.Stats().Reset()
		if _, err := AccumulateCWorkers(src, workers); err != nil {
			t.Fatal(err)
		}
		if got := src.Stats().Passes(); got != 1 {
			t.Errorf("workers=%d: Passes = %d, want 1", workers, got)
		}
		if got := src.Stats().RowReads(); got != int64(n) {
			t.Errorf("workers=%d: RowReads = %d, want %d", workers, got, n)
		}
	}
}

// TestCompressWithFactorsWorkersUByteIdentical pins what sharding the
// projection may not change: every U row depends on its data row alone, so
// the stored U matrix is bit-for-bit the same at every worker count.
func TestCompressWithFactorsWorkersUByteIdentical(t *testing.T) {
	const n, m, k = 5000, 12, 5
	for name, src := range parallelTestSources(t, n, m) {
		f, err := ComputeFactors(src)
		if err != nil {
			t.Fatal(err)
		}
		uBytes := func(workers int) []byte {
			t.Helper()
			s, err := CompressWithFactorsWorkers(src, f, k, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			var buf bytes.Buffer
			urow := make([]float64, k)
			for i := 0; i < n; i++ {
				if err := s.URow(i, urow); err != nil {
					t.Fatal(err)
				}
				if err := binary.Write(&buf, binary.LittleEndian, urow); err != nil {
					t.Fatal(err)
				}
			}
			return buf.Bytes()
		}
		want := uBytes(1)
		for _, workers := range []int{2, 3, 8} {
			if got := uBytes(workers); !bytes.Equal(got, want) {
				t.Errorf("%s: U at workers=%d differs from serial", name, workers)
			}
		}
	}
}

// TestFactorsOfWrongWidthRejected: factors computed for an 8-column matrix
// used to index V out of range — inside a worker goroutine on the sharded
// path — when projected against a 12-column source.
func TestFactorsOfWrongWidthRejected(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f, err := ComputeFactors(matio.NewMem(randMatrix(r, 50, 8)))
	if err != nil {
		t.Fatal(err)
	}
	wide := matio.NewMem(randMatrix(r, 3000, 12))
	for _, workers := range []int{1, 2} {
		if _, err := CompressWithFactorsWorkers(wide, f, 3, workers); !errors.Is(err, seqerr.ErrOutOfRange) {
			t.Errorf("workers=%d: err = %v, want ErrOutOfRange", workers, err)
		}
	}
}

func TestComputeUWorkersSerialFallback(t *testing.T) {
	const n, m = 3000, 8
	x := randMatrix(rand.New(rand.NewSource(9)), n, m)
	mem := matio.NewMem(x)
	f, err := ComputeFactors(mem)
	if err != nil {
		t.Fatal(err)
	}
	k := f.Clamp(3)
	want := linalg.NewMatrix(n, k)
	if err := ComputeU(mem, f, k, func(i int, urow []float64) error {
		copy(want.Row(i), urow)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A source without ScanRowsRange must still work at any worker count.
	got := linalg.NewMatrix(n, k)
	err = ComputeUWorkers(&plainSource{mem}, f, k, 8, func(i int, urow []float64) error {
		copy(got.Row(i), urow)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.Equal(got, want, 0) {
		t.Error("fallback path differs from ComputeU")
	}
}

func TestComputeUWorkersSinkErrorAborts(t *testing.T) {
	const n, m = 5000, 8
	x := randMatrix(rand.New(rand.NewSource(4)), n, m)
	mem := matio.NewMem(x)
	f, err := ComputeFactors(mem)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sink full")
	err = ComputeUWorkers(mem, f, 3, 4, func(i int, urow []float64) error {
		if i == 1500 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the sink error", err)
	}
}

func TestCompressWorkersMatchesSerial(t *testing.T) {
	const n, m, k = 5000, 10, 4
	x := randMatrix(rand.New(rand.NewSource(6)), n, m)
	src := matio.NewMem(x)
	serial, err := CompressWorkers(src, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompressWorkers(src, k, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 999, n - 1} {
		for j := 0; j < m; j++ {
			a, err := serial.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(a - b); d > 1e-9*(1+math.Abs(a)) {
				t.Errorf("cell (%d,%d): serial %v vs parallel %v", i, j, a, b)
			}
		}
	}
}
