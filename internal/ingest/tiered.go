package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/trace"
)

// Defaults for Options zero values.
const (
	// DefaultCompactAfter is the hot-row count that wakes the background
	// compactor.
	DefaultCompactAfter = 256
	// DefaultMaxDeltas is the per-row delta budget a compaction grants each
	// folded SVDD row.
	DefaultMaxDeltas = 8
	// DefaultRecompressGrowth triggers a full recompression once fold-in
	// growth pushes the cold segment's stored numbers past this multiple of
	// its post-recompression baseline.
	DefaultRecompressGrowth = 1.5
)

// ErrNotWritable is returned by Open when the cold store cannot absorb
// folded rows (unsupported method, or a read-only file-backed U).
var ErrNotWritable = errors.New("ingest: cold store does not support fold-in")

// ErrNotFinite rejects appended rows containing NaN or ±Inf, which would
// poison the factors at the next recompression.
var ErrNotFinite = errors.New("ingest: row contains a non-finite value")

// Options tunes the tiered store. The zero value is ready for use.
type Options struct {
	// CompactAfter is the hot-segment row count that wakes the background
	// compactor; 0 means DefaultCompactAfter.
	CompactAfter int
	// CompactBatch caps the rows folded per compaction run; 0 means
	// CompactAfter (drain to empty in one pause when triggered at the
	// threshold).
	CompactBatch int
	// MaxDeltas is the outlier budget granted to each folded SVDD row
	// (ignored for plain SVD); 0 means DefaultMaxDeltas, negative means no
	// deltas.
	MaxDeltas int
	// RecompressGrowth sets the stored-numbers growth factor (relative to
	// the last recompression baseline) past which a full recompression
	// runs; 0 means DefaultRecompressGrowth, negative disables automatic
	// recompression.
	RecompressGrowth float64
	// Compressor selects the recompression factor algorithm:
	// svd.CompressorRandomized (default, also "") — the O(M·(k+p)) sketch
	// pipeline — or svd.CompressorGram.
	Compressor string
	// PowerIters tunes the randomized compressor's refinement passes.
	PowerIters int
	// Workers parallelizes compression scans; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// PersistPath, when non-empty, is where the cold segment is atomically
	// saved after each compaction and recompression; the WAL is then
	// checkpointed down to the still-hot rows. When empty the cold segment
	// is never persisted and the WAL retains every appended row, so crash
	// recovery replays the full history onto the original cold store.
	PersistPath string
	// DisableBackground turns the compactor goroutine off; the caller
	// drives Compact and Recompress explicitly (deterministic tests, CLI
	// batch loads).
	DisableBackground bool
	// Logger receives background-compaction diagnostics; nil means
	// slog.Default().
	Logger *slog.Logger
}

func (o Options) compactAfter() int {
	if o.CompactAfter <= 0 {
		return DefaultCompactAfter
	}
	return o.CompactAfter
}

func (o Options) compactBatch() int {
	if o.CompactBatch <= 0 {
		return o.compactAfter()
	}
	return o.CompactBatch
}

func (o Options) maxDeltas() int {
	if o.MaxDeltas == 0 {
		return DefaultMaxDeltas
	}
	if o.MaxDeltas < 0 {
		return 0
	}
	return o.MaxDeltas
}

func (o Options) recompressGrowth() float64 {
	if o.RecompressGrowth == 0 {
		return DefaultRecompressGrowth
	}
	return o.RecompressGrowth
}

func (o Options) compressor() string {
	if o.Compressor == "" {
		return svd.CompressorRandomized
	}
	return o.Compressor
}

func (o Options) logger() *slog.Logger {
	if o.Logger == nil {
		return slog.Default()
	}
	return o.Logger
}

// Tiered unifies a compressed cold segment and a WAL-backed uncompressed
// hot segment behind one store.Store view. Rows append to the hot segment
// (durable in the WAL before the write is acknowledged) and are folded
// into the cold segment by Compact; once fold-in growth passes the
// threshold, Recompress rebuilds the cold segment from scratch.
//
// Lock order (always acquired in this order, never reversed):
//
//	maintMu → writeMu → mu
//
// mu is the view lock: readers hold RLock for the duration of one logical
// read, mutators hold Lock only for the in-memory publish — the measured
// "pause". writeMu serializes index assignment + WAL append + publish so
// acknowledged indices are dense, and is held across a compaction's
// persist+checkpoint so no acknowledged record can slip out of the
// checkpointed WAL. maintMu serializes the two maintenance operations;
// Recompress holds only maintMu plus a brief mu.Lock swap, so appends and
// reads proceed during the (long) factor rebuild.
type Tiered struct {
	mu      sync.RWMutex // view lock: cold, coldRows, hot state
	writeMu sync.Mutex   // serializes append/compact WAL+publish
	maintMu sync.Mutex   // serializes Compact and Recompress

	cold     *core.Store
	coldRows int
	cols     int

	// rowLabels holds labels for cold rows (nil when fully unlabeled);
	// hotLabels[i] labels hot row coldRows+i. labelIdx maps label → global
	// index, first occurrence winning, across both segments.
	rowLabels []string
	colLabels []string
	labelIdx  map[string]int

	hotRows   [][]float64
	hotLabels []string

	wal  *WAL
	opts Options

	// onChange is the invalidation hook (SetInvalidationHook), read under
	// mu.
	onChange func()

	// baseline is the cold segment's stored numbers right after the last
	// recompression (or at Open); the growth trigger compares against it.
	baseline int64
	// origRatio is the cold segment's space ratio at Open — recompression
	// re-targets it so the store keeps its configured budget as it grows.
	origRatio float64

	epoch          atomic.Uint64
	appended       atomic.Int64
	folded         atomic.Int64
	compactions    atomic.Int64
	recompressions atomic.Int64
	lastPauseUs    atomic.Int64
	maxPauseUs     atomic.Int64

	closed atomic.Bool
	kick   chan struct{}
	done   chan struct{}
	bg     sync.WaitGroup
}

// Stats is a point-in-time snapshot of the ingestion tier for /v1/metrics
// and the experiments harness.
type Stats struct {
	HotRows            int    `json:"hot_rows"`
	ColdRows           int    `json:"cold_rows"`
	Appended           int64  `json:"rows_appended"`
	Folded             int64  `json:"rows_folded"`
	Compactions        int64  `json:"compactions"`
	Recompressions     int64  `json:"recompressions"`
	WalBytes           int64  `json:"wal_bytes"`
	WalSyncs           int64  `json:"wal_syncs"`
	LastCompactPauseUs int64  `json:"last_compact_pause_us"`
	MaxCompactPauseUs  int64  `json:"max_compact_pause_us"`
	Epoch              uint64 `json:"epoch"`
}

// writable returns st as the store kind the tier folds into: a core.Store
// with a memory-backed U.
func writable(st store.Store) (*core.Store, error) {
	cold, ok := st.(*core.Store)
	if !ok {
		return nil, fmt.Errorf("%w: method %v", ErrNotWritable, st.Method())
	}
	if !cold.Appendable() {
		return nil, fmt.Errorf("%w: file-backed U", ErrNotWritable)
	}
	return cold, nil
}

// Open attaches the ingestion tier to a cold store: the WAL at walPath is
// created or replayed (acknowledged rows that were not yet compacted and
// persisted come back as hot rows), and unless DisableBackground is set a
// compactor goroutine starts. labels may be nil; when present its Rows and
// Cols become the cold segment's labels.
//
// The cold store must support fold-in (SVD or SVDD with a memory-backed
// U); anything else returns ErrNotWritable immediately.
func Open(st store.Store, labels *store.Labels, walPath string, opts Options) (*Tiered, error) {
	cold, err := writable(st)
	if err != nil {
		return nil, err
	}
	n, m := cold.Dims()
	if m <= 0 {
		return nil, fmt.Errorf("ingest: cold store has no columns")
	}
	t := &Tiered{
		cold:      cold,
		coldRows:  n,
		cols:      m,
		opts:      opts,
		baseline:  cold.StoredNumbers(),
		origRatio: store.SpaceRatio(cold),
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if labels != nil {
		t.rowLabels = append([]string(nil), labels.Rows...)
		t.colLabels = append([]string(nil), labels.Cols...)
	}
	if t.rowLabels != nil && len(t.rowLabels) != n {
		return nil, fmt.Errorf("ingest: %d row labels for %d cold rows", len(t.rowLabels), n)
	}
	t.labelIdx = make(map[string]int)
	for i, l := range t.rowLabels {
		if l != "" {
			if _, dup := t.labelIdx[l]; !dup {
				t.labelIdx[l] = i
			}
		}
	}

	wal, recs, err := OpenWAL(walPath, m)
	if err != nil {
		return nil, err
	}
	if err := t.adopt(recs); err != nil {
		wal.Close()
		return nil, err
	}
	t.wal = wal

	if !opts.DisableBackground {
		t.bg.Add(1)
		go t.background()
	}
	return t, nil
}

// adopt replays WAL records into the hot segment. Records whose index lies
// inside the cold segment were folded and persisted before the crash and
// are skipped (the checkpoint that would have dropped them never ran); the
// rest must extend the store contiguously.
func (t *Tiered) adopt(recs []Record) error {
	next := t.coldRows
	for _, rec := range recs {
		if rec.Index < t.coldRows {
			continue
		}
		if rec.Index != next {
			return fmt.Errorf("ingest: WAL skips from row %d to %d (%w)", next, rec.Index, seqerr.ErrCorrupt)
		}
		t.hotRows = append(t.hotRows, rec.Row)
		t.hotLabels = append(t.hotLabels, rec.Label)
		if rec.Label != "" {
			if _, dup := t.labelIdx[rec.Label]; !dup {
				t.labelIdx[rec.Label] = rec.Index
			}
		}
		next++
	}
	t.appended.Store(int64(len(t.hotRows)))
	return nil
}

// background drains compaction work whenever Append kicks it (and once
// more at Close, so a clean shutdown leaves the hot segment compacted).
func (t *Tiered) background() {
	defer t.bg.Done()
	for {
		select {
		case <-t.kick:
			t.maintain(false)
		case <-t.done:
			t.maintain(true)
			return
		}
	}
}

// maintain folds hot rows while the threshold holds (or force drains), then
// recompresses if fold-in growth crossed the line.
func (t *Tiered) maintain(force bool) {
	log := t.opts.logger()
	for {
		if n := t.HotRows(); n == 0 || (!force && n < t.opts.compactAfter()) {
			break
		}
		if _, err := t.Compact(); err != nil {
			log.Error("ingest: background compaction failed", "err", err)
			return
		}
	}
	if g := t.opts.recompressGrowth(); g > 0 && t.growthFactor() > g {
		if err := t.Recompress(); err != nil {
			log.Error("ingest: background recompression failed", "err", err)
		}
	}
}

// growthFactor returns cold stored numbers relative to the baseline.
func (t *Tiered) growthFactor() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.baseline <= 0 {
		return 1
	}
	return float64(t.cold.StoredNumbers()) / float64(t.baseline)
}

// --- store.Store view ------------------------------------------------------

// Dims returns the unified dimensions: cold rows + hot rows.
func (t *Tiered) Dims() (int, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.coldRows + len(t.hotRows), t.cols
}

// Method reports the cold segment's method (the hot segment is an
// implementation detail of the write path, not a representation choice).
func (t *Tiered) Method() store.Method {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cold.Method()
}

// Cell returns x̂[i][j]: the exact buffered value for hot rows, the
// reconstruction for cold rows.
func (t *Tiered) Cell(i, j int) (float64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i >= t.coldRows && i < t.coldRows+len(t.hotRows) {
		if j < 0 || j >= t.cols {
			return 0, fmt.Errorf("ingest: column %d out of range %d (%w)", j, t.cols, seqerr.ErrOutOfRange)
		}
		return t.hotRows[i-t.coldRows][j], nil
	}
	return t.cold.Cell(i, j)
}

// Row reconstructs row i into dst. Hot rows are copied out exactly.
func (t *Tiered) Row(i int, dst []float64) ([]float64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i >= t.coldRows && i < t.coldRows+len(t.hotRows) {
		if cap(dst) < t.cols {
			dst = make([]float64, t.cols)
		}
		dst = dst[:t.cols]
		copy(dst, t.hotRows[i-t.coldRows])
		return dst, nil
	}
	return t.cold.Row(i, dst)
}

// StoredNumbers charges the cold representation plus one number per
// uncompressed hot cell — the honest logical footprint of the tier.
func (t *Tiered) StoredNumbers() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cold.StoredNumbers() + int64(len(t.hotRows))*int64(t.cols)
}

// Cold returns the current cold segment. The pointer is stable between
// recompressions; callers must treat it as read-only and tolerate it being
// one swap stale.
func (t *Tiered) Cold() *core.Store {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cold
}

// IsHot reports whether row i is currently served from the hot segment
// (exact, zero disk accesses). The serving layer uses this for cost
// attribution.
func (t *Tiered) IsHot(i int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return i >= t.coldRows && i < t.coldRows+len(t.hotRows)
}

// HotRows returns the hot segment's current row count.
func (t *Tiered) HotRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.hotRows)
}

// ColdRows returns the cold segment's current row count.
func (t *Tiered) ColdRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.coldRows
}

// Epoch returns the mutation epoch: it advances whenever existing rows'
// reconstructions may have changed (compaction, recompression).
func (t *Tiered) Epoch() uint64 { return t.epoch.Load() }

// RowLabel returns row i's label ("" when unlabeled or out of range).
func (t *Tiered) RowLabel(i int) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i >= 0 && i < len(t.rowLabels) {
		return t.rowLabels[i]
	}
	if i >= t.coldRows && i < t.coldRows+len(t.hotLabels) {
		return t.hotLabels[i-t.coldRows]
	}
	return ""
}

// LookupRow resolves a row label across both segments (first occurrence
// wins, matching the facade's duplicate-label rule).
func (t *Tiered) LookupRow(label string) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.labelIdx[label]
	return i, ok
}

// SetInvalidationHook sets the callback run, outside all store locks,
// after every mutation that changes existing rows' reconstructions: a
// compaction (the folded rows' exact values became approximations) and a
// recompression (every cold row, and the factors). The serving layer
// purges its query plans here. Safe to call while the background compactor
// runs.
func (t *Tiered) SetInvalidationHook(onChange func()) {
	t.mu.Lock()
	t.onChange = onChange
	t.mu.Unlock()
}

// invalidated runs the invalidation hook, if one is set.
func (t *Tiered) invalidated() {
	t.mu.RLock()
	onChange := t.onChange
	t.mu.RUnlock()
	if onChange != nil {
		onChange()
	}
}

// Stats snapshots the tier's counters.
func (t *Tiered) Stats() Stats {
	t.mu.RLock()
	hot, cold := len(t.hotRows), t.coldRows
	t.mu.RUnlock()
	return Stats{
		HotRows:            hot,
		ColdRows:           cold,
		Appended:           t.appended.Load(),
		Folded:             t.folded.Load(),
		Compactions:        t.compactions.Load(),
		Recompressions:     t.recompressions.Load(),
		WalBytes:           t.wal.Size(),
		WalSyncs:           t.wal.Syncs(),
		LastCompactPauseUs: t.lastPauseUs.Load(),
		MaxCompactPauseUs:  t.maxPauseUs.Load(),
		Epoch:              t.epoch.Load(),
	}
}

// --- Write path ------------------------------------------------------------

// Append ingests one row; see AppendBatch.
func (t *Tiered) Append(ctx context.Context, label string, row []float64) (int, error) {
	return t.AppendBatch(ctx, []string{label}, [][]float64{row})
}

// AppendBatch ingests rows as one durable batch: every row is validated,
// the whole batch is appended to the WAL under a single fsync, and only
// then published to the hot segment. The returned index is the first
// row's global index (the batch occupies consecutive indices). When
// AppendBatch returns nil the batch survives any crash; on error no row
// of the batch is visible or durable.
//
// The request's cost ledger (via ctx) is charged one written row per row
// and one disk access for the WAL barrier.
func (t *Tiered) AppendBatch(ctx context.Context, labels []string, rows [][]float64) (int, error) {
	if len(rows) == 0 {
		return 0, errors.New("ingest: empty batch")
	}
	if labels != nil && len(labels) != len(rows) {
		return 0, fmt.Errorf("ingest: %d labels for %d rows", len(labels), len(rows))
	}
	for _, row := range rows {
		if len(row) != t.cols {
			return 0, fmt.Errorf("ingest: appending row of length %d, want %d (%w)",
				len(row), t.cols, seqerr.ErrOutOfRange)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, ErrNotFinite
			}
		}
	}
	if t.closed.Load() {
		return 0, errors.New("ingest: store is closed")
	}

	t.writeMu.Lock()
	defer t.writeMu.Unlock()

	t.mu.RLock()
	first := t.coldRows + len(t.hotRows)
	t.mu.RUnlock()

	recs := make([]Record, len(rows))
	copies := make([][]float64, len(rows))
	for i, row := range rows {
		cp := append([]float64(nil), row...)
		copies[i] = cp
		var label string
		if labels != nil {
			label = labels[i]
		}
		recs[i] = Record{Index: first + i, Label: label, Row: cp}
	}
	if err := t.wal.Append(recs); err != nil {
		return 0, err
	}

	t.mu.Lock()
	for i := range copies {
		t.hotRows = append(t.hotRows, copies[i])
		t.hotLabels = append(t.hotLabels, recs[i].Label)
		if l := recs[i].Label; l != "" {
			if _, dup := t.labelIdx[l]; !dup {
				t.labelIdx[l] = first + i
			}
		}
	}
	hot := len(t.hotRows)
	t.mu.Unlock()

	t.appended.Add(int64(len(rows)))
	led := trace.LedgerFrom(ctx)
	led.AddRowsWritten(int64(len(rows)))
	led.AddDiskAccesses(1) // the batch's WAL fsync

	if !t.opts.DisableBackground && hot >= t.opts.compactAfter() {
		select {
		case t.kick <- struct{}{}:
		default:
		}
	}
	return first, nil
}

// --- Compaction ------------------------------------------------------------

// Compact folds up to CompactBatch of the oldest hot rows into the cold
// segment, persists the cold segment (when PersistPath is set) and
// checkpoints the WAL down to the rows still hot. Readers are blocked only
// for the in-memory fold (the reported pause); writers additionally wait
// for the persist+checkpoint. Returns the number of rows folded.
//
// Durability across the persist boundary: rows leave the WAL only after
// the cold segment containing them is safely on disk, and a crash between
// the two leaves both (replay skips records already inside the cold
// segment).
func (t *Tiered) Compact() (int, error) {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	t.writeMu.Lock()
	defer t.writeMu.Unlock()

	t.mu.RLock()
	n := len(t.hotRows)
	t.mu.RUnlock()
	if n == 0 {
		return 0, nil
	}
	if b := t.opts.compactBatch(); n > b {
		n = b
	}

	start := time.Now()
	t.mu.Lock()
	done := 0
	var foldErr error
	for i := 0; i < n; i++ {
		idx, err := t.cold.FoldIn(t.hotRows[i], t.opts.maxDeltas())
		if err != nil {
			foldErr = fmt.Errorf("ingest: fold row %d: %w", t.coldRows+i, err)
			break
		}
		if idx != t.coldRows+i {
			// The cold store grew somewhere else; abort loudly rather than
			// serve rows under shifted indices.
			foldErr = fmt.Errorf("ingest: fold-in landed at %d, want %d", idx, t.coldRows+i)
			break
		}
		done++
	}
	if done > 0 {
		if t.rowLabels != nil || anyLabeled(t.hotLabels[:done]) {
			if t.rowLabels == nil {
				t.rowLabels = make([]string, t.coldRows)
			}
			t.rowLabels = append(t.rowLabels, t.hotLabels[:done]...)
		}
		t.coldRows += done
		t.hotRows = t.hotRows[done:]
		t.hotLabels = t.hotLabels[done:]
		t.epoch.Add(1)
	}
	remaining := t.snapshotHotLocked()
	t.mu.Unlock()
	pause := time.Since(start).Microseconds()
	t.lastPauseUs.Store(pause)
	for {
		old := t.maxPauseUs.Load()
		if pause <= old || t.maxPauseUs.CompareAndSwap(old, pause) {
			break
		}
	}

	if done > 0 {
		t.folded.Add(int64(done))
		t.compactions.Add(1)
		if err := t.persistAndCheckpoint(remaining); err != nil {
			if foldErr == nil {
				foldErr = err
			} else {
				foldErr = fmt.Errorf("%w (and persist failed: %v)", foldErr, err)
			}
		}
		t.invalidated()
	}
	return done, foldErr
}

// snapshotHotLocked captures the still-hot rows as WAL records. Caller
// holds mu (any mode) and writeMu.
func (t *Tiered) snapshotHotLocked() []Record {
	recs := make([]Record, len(t.hotRows))
	for i := range t.hotRows {
		recs[i] = Record{Index: t.coldRows + i, Label: t.hotLabels[i], Row: t.hotRows[i]}
	}
	return recs
}

// persistAndCheckpoint saves the cold segment (when configured) and then
// shrinks the WAL to the given still-hot records. Caller holds maintMu and
// writeMu, so no append can slip between the snapshot and the checkpoint.
// Without a PersistPath the WAL is left intact: it remains the only durable
// copy of every appended row.
func (t *Tiered) persistAndCheckpoint(remaining []Record) error {
	if t.opts.PersistPath == "" {
		return nil // nothing saved: the WAL must keep every row
	}
	if err := t.saveCold(); err != nil {
		return err
	}
	return t.wal.Checkpoint(remaining)
}

// saveCold atomically writes the cold segment and its labels to PersistPath,
// when there is one. Caller holds maintMu and writeMu. The labels go to the
// encoder as they are, not as a copy per save: cold and rowLabels are only
// ever replaced or grown under maintMu (Compact, Recompress), and colLabels
// never changes after Open.
func (t *Tiered) saveCold() error {
	if t.opts.PersistPath == "" {
		return nil
	}
	var labels *store.Labels
	if t.rowLabels != nil || t.colLabels != nil {
		labels = &store.Labels{Rows: t.rowLabels, Cols: t.colLabels}
	}
	if err := store.SaveLabeled(t.opts.PersistPath, t.cold, labels); err != nil {
		return fmt.Errorf("ingest: persist cold segment: %w", err)
	}
	return nil
}

func anyLabeled(ss []string) bool {
	for _, s := range ss {
		if s != "" {
			return true
		}
	}
	return false
}

// --- Recompression ---------------------------------------------------------

// Recompress rebuilds the cold segment from scratch, re-targeting the
// space ratio it had at Open: folded-in rows stop being afterthoughts
// projected onto stale components and participate in the factorization.
// The input is the cold segment's own reconstruction (folded rows' worst
// cells are delta-pinned exact under SVDD, so the rebuild sees them
// faithfully) — the incremental-block-then-recompress shape, with the
// randomized sketch pipeline by default.
//
// Appends and reads proceed concurrently; only the final pointer swap
// takes the view lock. Compact is excluded for the duration (maintMu), so
// the cold segment is stable while it is being re-read.
func (t *Tiered) Recompress() error {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()

	t.mu.RLock()
	cold := t.cold
	n := t.coldRows
	t.mu.RUnlock()
	if n == 0 {
		return nil
	}

	x := linalg.NewMatrix(n, t.cols)
	buf := make([]float64, t.cols)
	for i := 0; i < n; i++ {
		row, err := cold.Row(i, buf)
		if err != nil {
			return fmt.Errorf("ingest: recompress read row %d: %w", i, err)
		}
		copy(x.Row(i), row)
	}
	src := matio.NewMem(x)

	var (
		next *core.Store
		err  error
	)
	if cold.Method() == store.MethodSVD {
		// A plain segment stays plain, at its k.
		k := cold.K()
		var base *svd.Store
		if t.opts.compressor() == svd.CompressorRandomized {
			base, err = svd.CompressRandWorkers(src, k, svd.RandOptions{
				Rank:       k,
				PowerIters: t.opts.PowerIters,
				Workers:    t.opts.Workers,
			})
		} else {
			base, err = svd.CompressWorkers(src, k, t.opts.Workers)
		}
		if err == nil {
			next = core.Plain(base)
		}
	} else {
		budget := t.origRatio
		if budget <= 0 || budget > 1 {
			budget = store.SpaceRatio(cold)
		}
		if budget > 1 {
			budget = 1
		}
		next, err = core.Compress(src, core.Options{
			Budget:     budget,
			Compressor: t.opts.compressor(),
			PowerIters: t.opts.PowerIters,
			Workers:    t.opts.Workers,
		})
	}
	if b := cold.Precision(); err == nil && b != next.Precision() {
		next, err = withPrecision(next, b)
	}
	if err != nil {
		return fmt.Errorf("ingest: recompress: %w", err)
	}

	t.mu.Lock()
	t.cold = next
	t.baseline = next.StoredNumbers()
	t.epoch.Add(1)
	t.mu.Unlock()
	t.recompressions.Add(1)

	// Persist the new cold segment; the WAL needs no checkpoint (the hot
	// set did not change). A crash before this save replays onto the old
	// persisted segment — correct, merely unoptimized.
	t.writeMu.Lock()
	perr := t.saveCold()
	t.writeMu.Unlock()

	t.invalidated()
	return perr
}

// withPrecision returns s at b bytes per stored number, holding exactly the
// values its file holds, so that a restart serves what was served before it.
// The compressors always build at b = 8; a recompressed segment keeps the b
// of the one it replaces.
func withPrecision(s *core.Store, b int) (*core.Store, error) {
	if err := s.SetPrecision(b); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, s); err != nil {
		return nil, err
	}
	rounded, err := store.Read(&buf)
	if err != nil {
		return nil, err
	}
	return writable(rounded)
}

// Close stops the background compactor (after a final drain) and closes
// the WAL. Hot rows that remain unfolded are still durable in the WAL and
// come back on the next Open.
func (t *Tiered) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	t.bg.Wait()
	return t.wal.Close()
}

var _ store.Store = (*Tiered)(nil)
