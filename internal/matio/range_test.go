package matio

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestChunksPartition(t *testing.T) {
	cases := []struct{ n, chunkRows, want int }{
		{0, 100, 0},
		{1, 100, 1},
		{100, 100, 1},
		{101, 100, 2},
		{1000, 100, 10},
		{1050, 100, 11},
		{7, 0, 1}, // default chunk height
	}
	for _, c := range cases {
		chunks := Chunks(c.n, c.chunkRows)
		if len(chunks) != c.want {
			t.Errorf("Chunks(%d, %d): %d chunks, want %d", c.n, c.chunkRows, len(chunks), c.want)
			continue
		}
		next := 0
		for _, r := range chunks {
			if r.Start != next || r.End <= r.Start {
				t.Fatalf("Chunks(%d, %d): bad range %+v at offset %d", c.n, c.chunkRows, r, next)
			}
			next = r.End
		}
		if c.n > 0 && next != c.n {
			t.Errorf("Chunks(%d, %d): covers [0, %d)", c.n, c.chunkRows, next)
		}
	}
}

func TestNumWorkers(t *testing.T) {
	if got := NumWorkers(3); got != 3 {
		t.Errorf("NumWorkers(3) = %d", got)
	}
	if got := NumWorkers(1); got != 1 {
		t.Errorf("NumWorkers(1) = %d", got)
	}
	if got, want := NumWorkers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("NumWorkers(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := NumWorkers(0); got != 1 {
		t.Errorf("NumWorkers(0) = %d under GOMAXPROCS=1, want 1", got)
	}
	if got := NumWorkers(-2); got != 1 {
		t.Errorf("NumWorkers(-2) = %d under GOMAXPROCS=1, want 1", got)
	}
}

// rangeScanners builds one File- and one Mem-backed view of the same
// random matrix.
func rangeScanners(t *testing.T, n, m int) map[string]RangeScanner {
	t.Helper()
	x := randMatrix(rand.New(rand.NewSource(7)), n, m)
	path := tmpPath(t)
	if err := WriteMatrix(path, x); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]RangeScanner{"file": f, "mem": NewMem(x)}
}

func TestScanRowsRangeMatchesScanRows(t *testing.T) {
	const n, m = 57, 5
	for name, src := range rangeScanners(t, n, m) {
		want := make([][]float64, 0, n)
		if err := src.ScanRows(func(i int, row []float64) error {
			cp := make([]float64, m)
			copy(cp, row)
			want = append(want, cp)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, n}, {0, 1}, {13, 29}, {n - 1, n}, {20, 20}} {
			i := r[0]
			err := src.ScanRowsRange(r[0], r[1], func(gotI int, row []float64) error {
				if gotI != i {
					t.Fatalf("%s: range [%d,%d): got index %d, want %d", name, r[0], r[1], gotI, i)
				}
				for j, v := range row {
					if v != want[gotI][j] {
						t.Fatalf("%s: row %d col %d: %v != %v", name, gotI, j, v, want[gotI][j])
					}
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatalf("%s: range [%d,%d): %v", name, r[0], r[1], err)
			}
			if i != r[1] {
				t.Errorf("%s: range [%d,%d) stopped at %d", name, r[0], r[1], i)
			}
		}
	}
}

func TestScanRowsRangeBounds(t *testing.T) {
	for name, src := range rangeScanners(t, 10, 3) {
		for _, r := range [][2]int{{-1, 5}, {0, 11}, {7, 3}} {
			err := src.ScanRowsRange(r[0], r[1], func(int, []float64) error { return nil })
			if !errors.Is(err, ErrRowRange) {
				t.Errorf("%s: range [%d,%d): err = %v, want ErrRowRange", name, r[0], r[1], err)
			}
		}
	}
}

func TestScanRowsRangeAbortsOnError(t *testing.T) {
	sentinel := errors.New("stop")
	for name, src := range rangeScanners(t, 20, 3) {
		calls := 0
		err := src.ScanRowsRange(0, 20, func(i int, _ []float64) error {
			calls++
			if i == 4 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: err = %v, want sentinel", name, err)
		}
		if calls != 5 {
			t.Errorf("%s: %d calls before abort, want 5", name, calls)
		}
	}
}

// TestConcurrentRangeScanStats shards one logical pass across goroutines
// and checks that the atomic Stats counters stay exact under concurrency.
// Run under -race this also proves range scans don't share mutable state.
func TestConcurrentRangeScanStats(t *testing.T) {
	const n, m, workers = 700, 4, 8
	for name, src := range rangeScanners(t, n, m) {
		stats := src.(interface{ Stats() *Stats }).Stats()
		stats.Reset()
		StartPass(src)
		chunks := Chunks(n, 64)
		seen := make([]int32, n)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ci := w; ci < len(chunks); ci += workers {
					r := chunks[ci]
					errs[w] = src.ScanRowsRange(r.Start, r.End, func(i int, row []float64) error {
						seen[i]++
						return nil
					})
					if errs[w] != nil {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%s: row %d scanned %d times", name, i, c)
			}
		}
		if got := stats.RowReads(); got != n {
			t.Errorf("%s: RowReads = %d, want %d", name, got, n)
		}
		if got := stats.Passes(); got != 1 {
			t.Errorf("%s: Passes = %d, want 1 (StartPass only)", name, got)
		}
	}
}

// TestConcurrentScansAndReads mixes full scans, range scans and random
// reads on the same File; under -race this exercises the claim that all
// access paths are concurrency-safe.
func TestConcurrentScansAndReads(t *testing.T) {
	const n, m = 300, 6
	x := randMatrix(rand.New(rand.NewSource(3)), n, m)
	path := tmpPath(t)
	if err := WriteMatrix(path, x); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			errCh <- f.ScanRows(func(i int, row []float64) error {
				if row[0] != x.At(i, 0) {
					t.Errorf("scan row %d mismatch", i)
				}
				return nil
			})
		}()
		go func(g int) {
			defer wg.Done()
			errCh <- f.ScanRowsRange(g*50, g*50+100, func(i int, row []float64) error {
				if row[1] != x.At(i, 1) {
					t.Errorf("range row %d mismatch", i)
				}
				return nil
			})
		}(g)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, m)
			for i := g; i < n; i += 7 {
				if err := f.ReadRow(i, dst); err != nil {
					errCh <- err
					return
				}
				if dst[2] != x.At(i, 2) {
					t.Errorf("read row %d mismatch", i)
				}
			}
			errCh <- nil
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	wantReads := int64(4*n + 4*100) // full scans + range scans
	for g := 0; g < 4; g++ {
		wantReads += int64((n - g + 6) / 7) // strided random reads
	}
	if got := f.Stats().RowReads(); got != wantReads {
		t.Errorf("RowReads = %d, want %d", got, wantReads)
	}
	if got := f.Stats().Passes(); got != 4 {
		t.Errorf("Passes = %d, want 4", got)
	}
}
