package ingest

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/dct"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/metrics"
	"seqstore/internal/store"
	"seqstore/internal/svd"
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
	cold := coldStore(t, x)
	ratio0 := store.SpaceRatio(cold)
	ti := openTiered(t, cold, dir, Options{
		DisableBackground: true,
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
	epoch0 := ti.Epoch()
	if err := ti.Recompress(); err != nil {
		t.Fatal(err)
	}
	if ti.Epoch() == epoch0 {
		t.Error("epoch did not advance on recompression")
	}
	n, m := ti.Dims()
	if n != 60 || m != 48 {
		t.Fatalf("dims = %d×%d after recompression, want 60×48", n, m)
	}
	// The folds spend what the store's bound asks for, which may be more or
	// less than the budget; the rebuild re-targets the ratio the tier
	// opened with.
	if got := store.SpaceRatio(ti.Cold()); got > ratio0 {
		t.Errorf("recompressed to space ratio %.4f, past the %.4f the tier opened with", got, ratio0)
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

// TestRecompressBudgetCountsFoldDeltas: the recompression trigger charges
// a fold's deltas, not only its U rows. Rows whose spikes the components
// cannot express fold with many deltas each: their U rows alone would
// lower the space ratio, their deltas push it past the budget the tier
// opened with, and the compactor's check recompresses once.
func TestRecompressBudgetCountsFoldDeltas(t *testing.T) {
	cold := coldStore(t, phoneData(30))
	n0, m := cold.Dims()
	ratio0, stored0, k, deltas0 := store.SpaceRatio(cold), cold.StoredNumbers(), int64(cold.K()), cold.NumOutliers()
	fresh := phoneData(40)
	var rows [][]float64
	for i := 30; i < 40; i++ {
		row := slices.Clone(fresh.Row(i))
		for j := 0; j < len(row); j += 3 {
			row[j] += 500
		}
		rows = append(rows, row)
	}
	uOnly := float64(stored0+int64(len(rows))*k) / float64((n0+len(rows))*m)
	if uOnly > ratio0 {
		t.Fatalf("U rows alone raise the space ratio from %.4f to %.4f: the fixture shows nothing", ratio0, uOnly)
	}
	// Compact runs by hand first, so the ratio is known before the check;
	// maintain then only checks the budget.
	ti := openTiered(t, cold, t.TempDir(), Options{DisableBackground: true})
	defer ti.Close()
	if _, err := ti.AppendBatch(context.Background(), nil, rows); err != nil {
		t.Fatal(err)
	}
	if done, err := ti.Compact(); err != nil || done != len(rows) {
		t.Fatalf("Compact = %d, %v; want %d rows", done, err, len(rows))
	}
	if ti.Cold().NumOutliers() == deltas0 {
		t.Fatal("the folds stored no deltas")
	}
	ratio := store.SpaceRatio(ti.Cold())
	if ratio <= ratio0*(1+recompressSlack) {
		t.Fatalf("space ratio %.4f with %d fold deltas, budget %.4f: the deltas are not charged",
			ratio, ti.Cold().NumOutliers()-deltas0, ratio0)
	}
	ti.maintain(false)
	if got := ti.Stats().Recompressions; got != 1 {
		t.Errorf("space ratio %.4f past the budget %.4f (U rows alone %.4f) ran %d recompressions, want 1",
			ratio, ratio0, uOnly, got)
	}
}

// TestDefaultTierFoldsWithoutRecompressing: a tier with the default
// options over 4 000 phone rows at budget 0.10 — the store ingest_mixed
// opens — folds 4 000 more through its background compactor without a
// recompression. Folds at the store's bound keep the space ratio about the
// budget, so a rebuild would have nothing to reclaim.
func TestDefaultTierFoldsWithoutRecompressing(t *testing.T) {
	const cold, folded = 4000, 4000
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(cold + folded))
	head := linalg.NewMatrix(cold, x.Cols())
	for i := 0; i < cold; i++ {
		copy(head.Row(i), x.Row(i))
	}
	s, err := core.Compress(matio.NewMem(head), core.Options{Budget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	ratio0 := store.SpaceRatio(s)
	ti := openTiered(t, s, t.TempDir(), Options{})
	var rows [][]float64
	for i := cold; i < cold+folded; i++ {
		if rows = append(rows, x.Row(i)); len(rows) == 500 || i == cold+folded-1 {
			if _, err := ti.AppendBatch(context.Background(), nil, rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	if err := ti.Close(); err != nil { // drains the hot rows through maintain
		t.Fatal(err)
	}
	st := ti.Stats()
	ratio := store.SpaceRatio(ti.Cold())
	t.Logf("%d rows folded in %d compactions; space ratio %.4f → %.4f", st.Folded, st.Compactions, ratio0, ratio)
	if st.Folded != folded {
		t.Fatalf("%d rows folded, want %d", st.Folded, folded)
	}
	if st.Recompressions != 0 {
		t.Errorf("%d recompressions with the space ratio at %.4f against a %.4f budget", st.Recompressions, ratio, ratio0)
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

// kOf reports the cutoff k of an SVD-family cold segment.
func kOf(t *testing.T, s store.Store) int {
	t.Helper()
	ks, ok := s.(interface{ K() int })
	if !ok {
		t.Fatalf("%T has no cutoff", s)
	}
	return ks.K()
}

// TestTieredPlainSVD drives a tier over a plain-SVD cold segment through
// every step that depends on the cold store's method — Open, the fold of
// Compact (which must add no deltas) and Recompress (which must keep the
// method and k) — then reopens it from the persisted .sqz plus the WAL. The SHA-256 of the .sqz after the fixed fold
// sequence, and after the recompression, was recorded by running this very
// test on the commit before plain-SVD stores loaded as delta-free SVDD
// stores, at b = 8 and b = 4 — except the b = 4 recompression's, which is
// what that commit wrote when the tier was reopened between the fold and
// the recompression: a fold now keeps its U row at b = 4 as the file does,
// so the tier recompresses the values its file holds, restart or not. The
// two recompression hashes were recorded again when the segment's width
// began to choose the factor algorithm: this 48-column tier recompresses
// through the Gram pass, where it used the sketch before.
func TestTieredPlainSVD(t *testing.T) {
	for _, tc := range []struct {
		prec               int
		compacted, rebuilt string
	}{
		{8,
			"31388a28b7502b9429a45c8a57d8fef7aecf740f7e1a2086aa01f37fdb2417db",
			"8442b3fabff15bb8eff7f2c43665ac5dedd747fbbe1b982c6a872ec88fb5982b"},
		{4,
			"60d8d57dabe24b00e0d02051025178ba8d370f3f2a32aea60d2b429757fced64",
			"7b19bc7f2ca5c4aab2abdc6cea582464b9f9eee09cda5833ed0abfe19fbedd7f"},
	} {
		t.Run(fmt.Sprintf("b%d", tc.prec), func(t *testing.T) {
			plain, err := svd.Compress(matio.NewMem(phoneData(30)), 6)
			if err != nil {
				t.Fatal(err)
			}
			if err := plain.SetPrecision(tc.prec); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			sqz, walPath := filepath.Join(dir, "cold.sqz"), filepath.Join(dir, "hot.wal")
			if err := store.Save(sqz, plain); err != nil {
				t.Fatal(err)
			}
			opts := Options{DisableBackground: true, PersistPath: sqz, Workers: 1}
			open := func() *Tiered {
				t.Helper()
				cold, err := store.Load(sqz)
				if err != nil {
					t.Fatal(err)
				}
				ti, err := Open(cold, nil, walPath, opts)
				if err != nil {
					t.Fatal(err)
				}
				return ti
			}
			fileHash := func() string {
				t.Helper()
				b, err := os.ReadFile(sqz)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", sha256.Sum256(b))
			}
			fresh := phoneData(50)
			ctx := context.Background()
			appendRows := func(ti *Tiered, lo, hi int) {
				t.Helper()
				var rows [][]float64
				for i := lo; i < hi; i++ {
					rows = append(rows, fresh.Row(i))
				}
				if _, err := ti.AppendBatch(ctx, nil, rows); err != nil {
					t.Fatal(err)
				}
			}

			ti := open()
			k := kOf(t, ti.Cold())
			appendRows(ti, 30, 40)
			if done, err := ti.Compact(); err != nil || done != 10 {
				t.Fatalf("Compact = %d, %v; want 10 rows", done, err)
			}
			if ti.Method() != store.MethodSVD {
				t.Fatalf("method %v after compaction, want svd", ti.Method())
			}
			if got := fileHash(); got != tc.compacted {
				t.Errorf("persisted .sqz after compaction: sha256 %s, want %s", got, tc.compacted)
			}
			stored := ti.Cold().StoredBytes()
			if err := ti.Recompress(); err != nil {
				t.Fatal(err)
			}
			if ti.Method() != store.MethodSVD || kOf(t, ti.Cold()) != k {
				t.Fatalf("recompressed to %v with k = %d, want svd with k = %d", ti.Method(), kOf(t, ti.Cold()), k)
			}
			if got := ti.Cold().Precision(); got != tc.prec {
				t.Errorf("recompressed at b = %d, want b = %d kept", got, tc.prec)
			}
			if got := ti.Cold().StoredBytes(); got >= 2*stored {
				t.Errorf("recompression took the stored bytes from %d to %d", stored, got)
			}
			if got := fileHash(); got != tc.rebuilt {
				t.Errorf("persisted .sqz after recompression: sha256 %s, want %s", got, tc.rebuilt)
			}
			appendRows(ti, 40, 50)
			n, _ := ti.Dims()
			if n != 50 || ti.HotRows() != 10 {
				t.Fatalf("%d rows, %d hot; want 50, 10", n, ti.HotRows())
			}
			acked := make([][]float64, n)
			for i := range acked {
				if acked[i], err = ti.Row(i, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := ti.Close(); err != nil {
				t.Fatal(err)
			}

			re := open()
			defer re.Close()
			if got, _ := re.Dims(); got != n || re.HotRows() != 10 || re.Method() != store.MethodSVD {
				t.Fatalf("reopened: %d rows, %d hot, method %v; want %d, 10, svd", got, re.HotRows(), re.Method(), n)
			}
			for i, want := range acked {
				row, err := re.Row(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				for j := range row {
					if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
						t.Fatalf("reopened row %d col %d = %v, acknowledged %v", i, j, row[j], want[j])
					}
				}
				if i >= 40 && !slices.Equal(row, fresh.Row(i)) {
					t.Fatalf("hot row %d does not read back exactly", i)
				}
			}
		})
	}
}

// TestFoldServesStoredPrecision: a tier over an SVDD segment stored at
// b = 4 serves a fold's new U rows and deltas as its file holds them, so
// every folded cell read before a reopen is bit-identical to the one read
// after it.
func TestFoldServesStoredPrecision(t *testing.T) {
	cold := coldStore(t, phoneData(30))
	if err := cold.SetPrecision(4); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sqz := filepath.Join(dir, "cold.sqz")
	if err := store.Save(sqz, cold); err != nil {
		t.Fatal(err)
	}
	open := func() *Tiered {
		t.Helper()
		loaded, err := store.Load(sqz)
		if err != nil {
			t.Fatal(err)
		}
		return openTiered(t, loaded, dir, Options{DisableBackground: true, PersistPath: sqz, Workers: 1})
	}
	ti := open()
	fresh := phoneData(40)
	var rows [][]float64
	for i := 30; i < 40; i++ {
		rows = append(rows, fresh.Row(i))
	}
	if _, err := ti.AppendBatch(context.Background(), nil, rows); err != nil {
		t.Fatal(err)
	}
	if done, err := ti.Compact(); err != nil || done != 10 {
		t.Fatalf("Compact = %d, %v; want 10 rows", done, err)
	}
	if ti.Cold().NumOutliers() == 0 {
		t.Fatal("fixture stored no deltas")
	}
	_, m := ti.Dims()
	cells := func(ti *Tiered) []float64 {
		t.Helper()
		var out []float64
		for i := 30; i < 40; i++ {
			for j := 0; j < m; j++ {
				v, err := ti.Cell(i, j)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
		}
		return out
	}
	before := cells(ti)
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
	re := open()
	defer re.Close()
	after := cells(re)
	for c := range before {
		if math.Float64bits(before[c]) != math.Float64bits(after[c]) {
			t.Fatalf("folded cell (%d, %d) = %v before the reopen, %v after", 30+c/m, c%m, before[c], after[c])
		}
	}
}

// TestRecompressKeepsPrecisionSVDD: an SVDD segment stored at b = 4 is
// rebuilt at b = 4, and serves exactly the values its file holds.
func TestRecompressKeepsPrecisionSVDD(t *testing.T) {
	cold := coldStore(t, phoneData(30))
	if err := cold.SetPrecision(4); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sqz := filepath.Join(dir, "cold.sqz")
	ti := openTiered(t, cold, dir, Options{DisableBackground: true, PersistPath: sqz, Workers: 1})
	defer ti.Close()
	if err := ti.Recompress(); err != nil {
		t.Fatal(err)
	}
	if got := ti.Cold().Precision(); got != 4 {
		t.Fatalf("recompressed at b = %d, want b = 4 kept", got)
	}
	saved, err := store.Load(sqz)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := ti.Dims()
	for i := 0; i < n; i++ {
		got, err := ti.Cold().Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := saved.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("row %d served as %v, saved as %v", i, got, want)
		}
	}
}

// TestRecompressSketchesWideSegment: a segment svd.SketchMinCols wide is
// rebuilt through the sketch, whatever its method: the rebuilt segment is
// bit for bit what the sketch, in that method's two passes, makes of the
// cold segment's reconstruction (the input Recompress compresses), at the
// precision the segment was stored with, and it reads back within a stated
// RMSPE of the rows written. The plain segment is kept at b = 8: its input
// is exactly rank k, so at b = 4 the Gram pass's rebuild rounds to the
// same values as the sketch's.
func TestRecompressSketchesWideSegment(t *testing.T) {
	const n, folded = 40, 10
	cfg := dataset.DefaultPhoneConfig(n + folded)
	cfg.M = svd.SketchMinCols
	x := dataset.GeneratePhone(cfg)
	head := linalg.NewMatrix(n, cfg.M)
	for i := 0; i < n; i++ {
		copy(head.Row(i), x.Row(i))
	}
	for _, tc := range []struct {
		method store.Method
		prec   int
		cold   func() (*core.Store, error)
		// sketch compresses src through the sketch as Recompress would,
		// at the segment's budget or cutoff.
		sketch   func(src matio.RowSource, budget float64, k int) (*core.Store, error)
		maxRMSPE float64 // percent, against the rows written
	}{
		{store.MethodSVD, 8,
			func() (*core.Store, error) { return plainOf(svd.Compress(matio.NewMem(head), 6)) },
			func(src matio.RowSource, _ float64, k int) (*core.Store, error) {
				return plainOf(svd.CompressRandWorkers(src, k, svd.RandOptions{Rank: k, PowerIters: svd.SVDPowerIters, Workers: 1}))
			},
			48.5}, // 48.455 before the rebuild and after: rank 6 recovers a rank-6 input
		{store.MethodSVDD, 4,
			func() (*core.Store, error) { return core.Compress(matio.NewMem(head), core.Options{Budget: 0.2}) },
			func(src matio.RowSource, budget float64, _ int) (*core.Store, error) {
				return core.Compress(src, core.Options{Budget: budget, Compressor: svd.CompressorRandomized, Workers: 1})
			},
			10}, // 7.181 before the rebuild, 8.741 after (8.278 and 9.571 when folds were capped at 8 deltas a row)
	} {
		t.Run(tc.method.String(), func(t *testing.T) {
			cold, err := tc.cold()
			if err != nil {
				t.Fatal(err)
			}
			if err := cold.SetPrecision(tc.prec); err != nil {
				t.Fatal(err)
			}
			budget, k := store.SpaceRatio(cold), cold.K()
			dir := t.TempDir()
			sqz := filepath.Join(dir, "cold.sqz")
			ti := openTiered(t, cold, dir, Options{DisableBackground: true, PersistPath: sqz, Workers: 1})
			defer ti.Close()
			var rows [][]float64
			for i := n; i < n+folded; i++ {
				rows = append(rows, x.Row(i))
			}
			if _, err := ti.AppendBatch(context.Background(), nil, rows); err != nil {
				t.Fatal(err)
			}
			if done, err := ti.Compact(); err != nil || done != folded {
				t.Fatalf("Compact = %d, %v; want %d rows", done, err, folded)
			}
			recon := linalg.NewMatrix(n+folded, cfg.M)
			for i := 0; i < n+folded; i++ {
				if _, err := ti.Cold().Row(i, recon.Row(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ti.Recompress(); err != nil {
				t.Fatal(err)
			}

			src := matio.NewMem(recon)
			want, err := tc.sketch(src, budget, k)
			if err != nil {
				t.Fatal(err)
			}
			if p := src.Stats().Passes(); p != 2 {
				t.Fatalf("the sketch made %d passes, want 2", p)
			}
			if want, err = withPrecision(want, tc.prec); err != nil {
				t.Fatal(err)
			}
			if ti.Method() != tc.method {
				t.Fatalf("recompressed to %v, want %v", ti.Method(), tc.method)
			}
			if got := ti.Cold().Precision(); got != tc.prec {
				t.Fatalf("recompressed at b = %d, want b = %d kept", got, tc.prec)
			}
			saved, err := store.Load(sqz)
			if err != nil {
				t.Fatal(err)
			}
			var acc metrics.Accumulator
			for i := 0; i < n+folded; i++ {
				got, err := ti.Cold().Row(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				for name, s := range map[string]store.Store{"the sketch's store": want, "the saved file": saved} {
					other, err := s.Row(i, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, other) {
						t.Fatalf("row %d of the rebuilt segment differs from %s", i, name)
					}
				}
				acc.AddRow(i, x.Row(i), got)
			}
			if got := 100 * acc.RMSPE(); got > tc.maxRMSPE {
				t.Errorf("rebuilt segment reads back at RMSPE %.3f %%, want ≤ %.1f %%", got, tc.maxRMSPE)
			}
		})
	}
}

func plainOf(s *svd.Store, err error) (*core.Store, error) {
	if err != nil {
		return nil, err
	}
	return core.Plain(s), nil
}
