package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/dct"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
)

// phoneData generates a small deterministic customer×day matrix.
func phoneData(n int) *linalg.Matrix {
	cfg := dataset.DefaultPhoneConfig(n)
	cfg.M = 48
	return dataset.GeneratePhone(cfg)
}

// coldStore compresses x with SVDD at a comfortable budget.
func coldStore(t *testing.T, x *linalg.Matrix) *core.Store {
	t.Helper()
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func openTiered(t *testing.T, cold store.Store, dir string, opts Options) *Tiered {
	t.Helper()
	ti, err := Open(cold, nil, filepath.Join(dir, "hot.wal"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ti
}

func TestTieredAppendServesExactThenCompacts(t *testing.T) {
	x := phoneData(30)
	dir := t.TempDir()
	sqz := filepath.Join(dir, "cold.sqz")
	ti := openTiered(t, coldStore(t, x), dir, Options{
		DisableBackground: true,
		PersistPath:       sqz,
	})
	defer ti.Close()
	n0, m := ti.Dims()

	fresh := phoneData(40) // rows 30..39 are new patterns
	ctx := context.Background()
	var labels []string
	var rows [][]float64
	for i := 30; i < 40; i++ {
		labels = append(labels, fmt.Sprintf("cust-%03d", i))
		rows = append(rows, fresh.Row(i))
	}
	first, err := ti.AppendBatch(ctx, labels, rows)
	if err != nil {
		t.Fatal(err)
	}
	if first != n0 {
		t.Fatalf("first index = %d, want %d", first, n0)
	}
	if n, _ := ti.Dims(); n != n0+10 {
		t.Fatalf("rows = %d, want %d", n, n0+10)
	}

	// Hot rows serve the exact buffered values.
	for i := 0; i < 10; i++ {
		g := n0 + i
		if !ti.IsHot(g) {
			t.Fatalf("row %d not hot", g)
		}
		got, err := ti.Row(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m; j++ {
			if got[j] != fresh.At(30+i, j) {
				t.Fatalf("hot row %d col %d = %v, want exact %v", g, j, got[j], fresh.At(30+i, j))
			}
		}
		if v, err := ti.Cell(g, 7); err != nil || v != fresh.At(30+i, 7) {
			t.Fatalf("hot Cell(%d,7) = %v, %v", g, v, err)
		}
	}
	if idx, ok := ti.LookupRow("cust-035"); !ok || idx != n0+5 {
		t.Fatalf("LookupRow(cust-035) = %d, %v", idx, ok)
	}

	invalidated := 0
	ti.SetInvalidationHook(func() { invalidated++ })
	epoch0 := ti.Epoch()
	done, err := ti.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if done != 10 {
		t.Fatalf("compacted %d rows, want 10", done)
	}
	if ti.HotRows() != 0 {
		t.Fatalf("%d rows still hot after compaction", ti.HotRows())
	}
	if n, _ := ti.Dims(); n != n0+10 {
		t.Fatalf("rows = %d after compaction, want %d", n, n0+10)
	}
	if ti.Epoch() == epoch0 {
		t.Error("epoch did not advance on compaction")
	}
	if invalidated != 1 {
		t.Errorf("invalidation hook ran %d times for one compaction, want 1", invalidated)
	}
	if ti.IsHot(n0) {
		t.Error("folded row still reported hot")
	}
	// Labels survive the move and folded rows still reconstruct (approximately
	// — SVDD pins the worst cells, the pattern is in-subspace).
	if idx, ok := ti.LookupRow("cust-035"); !ok || idx != n0+5 {
		t.Fatalf("post-compact LookupRow(cust-035) = %d, %v", idx, ok)
	}
	if _, err := ti.Row(n0+5, nil); err != nil {
		t.Fatal(err)
	}
	st := ti.Stats()
	if st.Folded != 10 || st.Compactions != 1 || st.ColdRows != n0+10 {
		t.Errorf("stats = %+v", st)
	}

	// The persisted cold segment + checkpointed WAL reopen to the same view.
	cold2, labels2, err := store.LoadLabeled(sqz)
	if err != nil {
		t.Fatal(err)
	}
	ti2, err := Open(cold2, labels2, filepath.Join(dir, "hot.wal"), Options{DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ti2.Close()
	if n, _ := ti2.Dims(); n != n0+10 {
		t.Fatalf("reopened rows = %d, want %d", n, n0+10)
	}
	if ti2.HotRows() != 0 {
		t.Errorf("reopened with %d hot rows, want 0 (WAL was checkpointed)", ti2.HotRows())
	}
	if idx, ok := ti2.LookupRow("cust-035"); !ok || idx != n0+5 {
		t.Errorf("reopened LookupRow(cust-035) = %d, %v", idx, ok)
	}
	want, _ := ti.Row(n0+5, nil)
	got, err := ti2.Row(n0+5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
			t.Fatalf("persisted row differs at col %d", j)
		}
	}
}

func TestTieredRejectsBadInput(t *testing.T) {
	x := phoneData(20)
	ti := openTiered(t, coldStore(t, x), t.TempDir(), Options{DisableBackground: true})
	defer ti.Close()
	ctx := context.Background()
	if _, err := ti.Append(ctx, "", make([]float64, 5)); err == nil {
		t.Error("short row accepted")
	}
	bad := make([]float64, 48)
	bad[3] = math.NaN()
	if _, err := ti.Append(ctx, "", bad); !errors.Is(err, ErrNotFinite) {
		t.Errorf("NaN row: err = %v, want ErrNotFinite", err)
	}
	if _, err := ti.AppendBatch(ctx, nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if n, _ := ti.Dims(); n != 20 {
		t.Errorf("rejected writes changed dims to %d", n)
	}
}

func TestTieredRejectsUnfoldableCold(t *testing.T) {
	x := phoneData(20)
	d, err := dct.Compress(matio.NewMem(x), 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d, nil, filepath.Join(t.TempDir(), "hot.wal"), Options{}); !errors.Is(err, ErrNotWritable) {
		t.Fatalf("err = %v, want ErrNotWritable", err)
	}
}

// TestTieredCrashRecovery walks the tier through crash points: after
// acknowledged appends (WAL only), and after a compaction persisted the
// cold segment but before/after the WAL checkpoint.
func TestTieredCrashRecovery(t *testing.T) {
	x := phoneData(25)
	dir := t.TempDir()
	sqz := filepath.Join(dir, "cold.sqz")
	walPath := filepath.Join(dir, "hot.wal")
	if err := store.Save(sqz, coldStore(t, x)); err != nil {
		t.Fatal(err)
	}
	fresh := phoneData(33)
	ctx := context.Background()

	// Boot 1: append 8 rows, "crash" without compacting (Close only syncs).
	cold, err := store.Load(sqz)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := Open(cold, nil, walPath, Options{DisableBackground: true, PersistPath: sqz})
	if err != nil {
		t.Fatal(err)
	}
	for i := 25; i < 33; i++ {
		if _, err := ti.Append(ctx, fmt.Sprintf("r%d", i), fresh.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	ti.Close()

	// Boot 2: the cold file never saw those rows; the WAL replays all 8.
	cold, err = store.Load(sqz)
	if err != nil {
		t.Fatal(err)
	}
	ti, err = Open(cold, nil, walPath, Options{DisableBackground: true, PersistPath: sqz})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ti.Dims(); n != 33 || ti.HotRows() != 8 {
		t.Fatalf("boot 2: dims %d, hot %d; want 33, 8", firstOf(ti.Dims()), ti.HotRows())
	}
	for i := 25; i < 33; i++ {
		row, err := ti.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range row {
			if row[j] != fresh.At(i, j) {
				t.Fatalf("boot 2: replayed row %d col %d = %v, want %v", i, j, row[j], fresh.At(i, j))
			}
		}
	}

	// Compact (persists cold + checkpoints WAL), but simulate a crash
	// BETWEEN the two by restoring the pre-checkpoint WAL afterwards.
	preWal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ti.Compact(); err != nil {
		t.Fatal(err)
	}
	ti.Close()
	if err := os.WriteFile(walPath, preWal, 0o644); err != nil {
		t.Fatal(err)
	}

	// Boot 3: cold already contains the folded rows; the stale WAL records
	// must be skipped, not replayed twice.
	cold, labels, err := store.LoadLabeled(sqz)
	if err != nil {
		t.Fatal(err)
	}
	ti, err = Open(cold, labels, walPath, Options{DisableBackground: true, PersistPath: sqz})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ti.Dims(); n != 33 || ti.HotRows() != 0 {
		t.Fatalf("boot 3: dims %d, hot %d; want 33, 0", firstOf(ti.Dims()), ti.HotRows())
	}
	if idx, ok := ti.LookupRow("r30"); !ok || idx != 30 {
		t.Errorf("boot 3: LookupRow(r30) = %d, %v", idx, ok)
	}
	ti.Close()
}

func firstOf(a, _ int) int { return a }

// TestTieredCrashAtEveryWalOffset is the end-to-end durability drill: the
// WAL is cut at every byte offset and the tier re-opened; every batch
// acknowledged within the surviving prefix must come back exactly.
func TestTieredCrashAtEveryWalOffset(t *testing.T) {
	x := phoneData(20)
	dir := t.TempDir()
	sqz := filepath.Join(dir, "cold.sqz")
	walPath := filepath.Join(dir, "hot.wal")
	if err := store.Save(sqz, coldStore(t, x)); err != nil {
		t.Fatal(err)
	}
	fresh := phoneData(29)
	ctx := context.Background()

	cold, err := store.Load(sqz)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := Open(cold, nil, walPath, Options{DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	var ackSize []int64
	var ackRows []int
	for i := 20; i < 29; i += 3 {
		rows := [][]float64{fresh.Row(i), fresh.Row(i + 1), fresh.Row(i + 2)}
		if _, err := ti.AppendBatch(ctx, nil, rows); err != nil {
			t.Fatal(err)
		}
		ackSize = append(ackSize, ti.Stats().WalBytes)
		ackRows = append(ackRows, i+3)
	}
	ti.Close()
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	crashWal := filepath.Join(dir, "crash.wal")
	for off := int64(walHeaderSize); off <= int64(len(data)); off++ {
		if err := os.WriteFile(crashWal, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		cold, err := store.Load(sqz)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Open(cold, nil, crashWal, Options{DisableBackground: true})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		mustHave := 20
		for k := range ackSize {
			if ackSize[k] <= off {
				mustHave = ackRows[k]
			}
		}
		n, _ := re.Dims()
		if n < mustHave {
			t.Fatalf("offset %d: %d rows recovered, %d acknowledged", off, n, mustHave)
		}
		for i := 20; i < n; i++ {
			row, err := re.Row(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range row {
				if row[j] != fresh.At(i, j) {
					t.Fatalf("offset %d: row %d col %d = %v, want %v", off, i, j, row[j], fresh.At(i, j))
				}
			}
		}
		re.Close()
	}
}

func TestTieredRecompress(t *testing.T) {
	x := phoneData(30)
	dir := t.TempDir()
	ti := openTiered(t, coldStore(t, x), dir, Options{
		DisableBackground: true,
		MaxDeltas:         6,
	})
	defer ti.Close()
	ctx := context.Background()
	fresh := phoneData(60)
	for i := 30; i < 60; i++ {
		if _, err := ti.Append(ctx, "", fresh.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ti.Compact(); err != nil {
		t.Fatal(err)
	}
	grown := ti.Cold().StoredNumbers()
	reshaped := false
	ti.SetInvalidationHook(func() { reshaped = true })
	if err := ti.Recompress(); err != nil {
		t.Fatal(err)
	}
	if !reshaped {
		t.Error("invalidation hook not run on recompression")
	}
	n, m := ti.Dims()
	if n != 60 || m != 48 {
		t.Fatalf("dims = %d×%d after recompression, want 60×48", n, m)
	}
	if got := ti.Cold().StoredNumbers(); got >= grown {
		t.Errorf("recompression did not shrink the cold segment: %d -> %d", grown, got)
	}
	if ti.Stats().Recompressions != 1 {
		t.Errorf("recompressions = %d", ti.Stats().Recompressions)
	}
	// The rebuilt factors must reconstruct the folded rows at least sanely.
	for _, i := range []int{0, 31, 59} {
		row, err := ti.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range row {
			if math.IsNaN(row[j]) {
				t.Fatalf("NaN in recompressed row %d", i)
			}
		}
	}
}

func TestTieredBackgroundCompaction(t *testing.T) {
	x := phoneData(30)
	ti := openTiered(t, coldStore(t, x), t.TempDir(), Options{
		CompactAfter:     8,
		RecompressGrowth: -1,
	})
	defer ti.Close()
	ctx := context.Background()
	fresh := phoneData(60)
	for i := 30; i < 60; i++ {
		if _, err := ti.Append(ctx, "", fresh.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for ti.HotRows() >= 8 {
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never drained: %d hot rows", ti.HotRows())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n, _ := ti.Dims(); n != 60 {
		t.Errorf("rows = %d, want 60", n)
	}
	if ti.Stats().Compactions == 0 {
		t.Error("no compactions recorded")
	}
}

// TestTieredConcurrentAppendCompactRead races appenders, the background
// compactor and readers; run under -race it pins the tier's locking.
func TestTieredConcurrentAppendCompactRead(t *testing.T) {
	x := phoneData(30)
	ti := openTiered(t, coldStore(t, x), t.TempDir(), Options{
		CompactAfter:     6,
		RecompressGrowth: -1,
	})
	defer ti.Close()
	ctx := context.Background()
	fresh := phoneData(40)

	const appends = 40
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if _, err := ti.Append(ctx, "", fresh.Row(30+i%10)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			var buf []float64
			for q := 0; q < 300; q++ {
				n, m := ti.Dims()
				i := q % n
				var err error
				if buf, err = ti.Row(i, buf); err != nil {
					t.Errorf("row %d: %v", i, err)
					return
				}
				if _, err := ti.Cell(i, q%m); err != nil {
					t.Errorf("cell: %v", err)
					return
				}
				ti.IsHot(i)
				ti.Stats()
			}
		}()
	}
	wg.Wait()
	if n, _ := ti.Dims(); n != 30+appends {
		t.Errorf("rows = %d, want %d", n, 30+appends)
	}
}
