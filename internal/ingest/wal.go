// Package ingest is the live ingestion tier over a compressed store: a
// write-ahead log feeding an uncompressed in-memory hot segment, unified
// with the SVD/SVDD cold segment (a core.Store either way) behind one
// store.Store view, and a background compactor that folds cooled rows into
// the compressed form (core.Store.Fold) and triggers full recompression
// once fold-in growth passes a threshold.
//
// This implements the paper's batched-updates assumption (§1) as an online
// system: writes are acknowledged only after they are durable in the WAL,
// queries see hot and cold rows through a single logical view, and the
// compressed representation is re-optimized in the background — the same
// incremental-block-then-recompress shape Zoom-SVD uses for time-windowed
// factors.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"seqstore/internal/atomicio"
	"seqstore/internal/seqerr"
)

// WAL format: a fixed header followed by self-checking append-only records.
//
//	header:  magic "SQZWAL01" | u32 version | u32 cols
//	record:  u64 index | u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u16 labelLen | label bytes | cols × f64 row values (LE)
//
// The index is the row's global position in the logical store (cold rows +
// hot offset), which makes replay idempotent across compactions: records
// whose index already lies inside the persisted cold segment are skipped.
// A torn tail — the crash window of an in-flight append — is detected by
// the length/CRC pair and truncated away; everything before it is intact
// because records are fsynced before the write is acknowledged.
const (
	walMagic      = "SQZWAL01"
	walVersion    = 1
	walHeaderSize = 16
	walRecordHdr  = 16 // index + payloadLen + crc
	// maxWalLabel bounds one decoded label, mirroring the .sqz container's
	// label bound so a corrupt length can't balloon an allocation.
	maxWalLabel = 1 << 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWalCols is returned when an existing WAL was written for a different
// column count than the store it is being attached to.
var ErrWalCols = errors.New("ingest: WAL column count mismatch")

// Record is one acknowledged-but-not-yet-compacted row.
type Record struct {
	// Index is the row's global index in the logical store.
	Index int
	// Label is the optional row label ("" when unnamed).
	Label string
	// Row holds the uncompressed sequence values (length = store columns).
	Row []float64
}

// WAL is the write-ahead log backing the hot segment. All methods are safe
// for concurrent use; Append is atomic at the batch level (one fsync per
// call acknowledges the whole batch).
type WAL struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	cols  int
	size  int64
	syncs int64
}

// OpenWAL opens (or creates) the log at path for a store with the given
// column count and replays every intact record. A torn tail — a partial
// record from a crash mid-append — is truncated away; records damaged by
// bit rot surface as seqerr.ErrCorrupt rather than silently wrong rows.
// The returned records are in append order with strictly increasing
// indices.
func OpenWAL(path string, cols int) (*WAL, []Record, error) {
	if cols <= 0 {
		return nil, nil, fmt.Errorf("ingest: WAL needs a positive column count, got %d", cols)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open WAL: %w", err)
	}
	w := &WAL{path: path, f: f, cols: cols}
	recs, err := w.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, recs, nil
}

// replay validates the header (writing a fresh one into an empty file),
// decodes every intact record, and truncates the file after the last good
// one so subsequent appends extend a clean tail.
func (w *WAL) replay() ([]Record, error) {
	info, err := w.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ingest: stat WAL: %w", err)
	}
	if info.Size() == 0 {
		if err := w.writeHeader(); err != nil {
			return nil, err
		}
		w.size = walHeaderSize
		return nil, nil
	}
	hdr := make([]byte, walHeaderSize)
	if _, err := w.f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("ingest: WAL header unreadable: %w (%w)", err, seqerr.ErrCorrupt)
	}
	if string(hdr[:8]) != walMagic {
		return nil, fmt.Errorf("ingest: %s is not a WAL (%w)", w.path, seqerr.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != walVersion {
		return nil, fmt.Errorf("%w: WAL version %d", seqerr.ErrBadVersion, v)
	}
	if c := int(binary.LittleEndian.Uint32(hdr[12:])); c != w.cols {
		return nil, fmt.Errorf("%w: WAL has %d columns, store has %d", ErrWalCols, c, w.cols)
	}

	var (
		recs []Record
		off  = int64(walHeaderSize)
		rhdr = make([]byte, walRecordHdr)
		last = -1
	)
	for off < info.Size() {
		rec, n, ok := w.readRecord(off, info.Size(), rhdr)
		if !ok {
			// Torn tail: drop the partial record and everything after it.
			break
		}
		if rec.Index <= last {
			return nil, fmt.Errorf("ingest: WAL indices regress at offset %d: %d after %d (%w)",
				off, rec.Index, last, seqerr.ErrCorrupt)
		}
		last = rec.Index
		recs = append(recs, rec)
		off += n
	}
	if off < info.Size() {
		if err := w.f.Truncate(off); err != nil {
			return nil, fmt.Errorf("ingest: truncate torn WAL tail: %w", err)
		}
	}
	w.size = off
	return recs, nil
}

// readRecord decodes one record at off; ok=false marks a torn/damaged
// record (the replay stops there).
func (w *WAL) readRecord(off, limit int64, rhdr []byte) (rec Record, n int64, ok bool) {
	if off+walRecordHdr > limit {
		return Record{}, 0, false
	}
	if _, err := w.f.ReadAt(rhdr, off); err != nil {
		return Record{}, 0, false
	}
	index := binary.LittleEndian.Uint64(rhdr[0:])
	plen := int64(binary.LittleEndian.Uint32(rhdr[8:]))
	crc := binary.LittleEndian.Uint32(rhdr[12:])
	want := int64(2 + 8*w.cols)
	if plen < want || plen > want+maxWalLabel || off+walRecordHdr+plen > limit {
		return Record{}, 0, false
	}
	payload := make([]byte, plen)
	if _, err := w.f.ReadAt(payload, off+walRecordHdr); err != nil {
		return Record{}, 0, false
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, 0, false
	}
	llen := int(binary.LittleEndian.Uint16(payload))
	if llen > maxWalLabel || int64(2+llen+8*w.cols) != plen {
		return Record{}, 0, false
	}
	row := make([]float64, w.cols)
	vals := payload[2+llen:]
	for j := range row {
		row[j] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*j:]))
	}
	return Record{
		Index: int(index),
		Label: string(payload[2 : 2+llen]),
		Row:   row,
	}, walRecordHdr + plen, true
}

func (w *WAL) writeHeader() error {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[8:], walVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(w.cols))
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("ingest: write WAL header: %w", err)
	}
	return w.f.Sync()
}

// encodeRecords appends the encoding of recs to buf, each record written in
// place: the buffer is grown once for the whole batch, and a record's CRC is
// taken over its payload where it already lies. Append and Checkpoint share
// it.
func encodeRecords(buf []byte, cols int, recs []Record) ([]byte, error) {
	size := 0
	for _, rec := range recs {
		if len(rec.Row) != cols {
			return nil, fmt.Errorf("ingest: WAL record row has %d values, want %d", len(rec.Row), cols)
		}
		if len(rec.Label) > maxWalLabel {
			return nil, fmt.Errorf("ingest: WAL record label of %d bytes exceeds %d", len(rec.Label), maxWalLabel)
		}
		size += walRecordHdr + 2 + len(rec.Label) + 8*cols
	}
	buf = slices.Grow(buf, size)
	for _, rec := range recs {
		plen := 2 + len(rec.Label) + 8*cols
		at := len(buf)
		buf = buf[:at+walRecordHdr+plen]
		rhdr, payload := buf[at:at+walRecordHdr], buf[at+walRecordHdr:]
		binary.LittleEndian.PutUint16(payload, uint16(len(rec.Label)))
		copy(payload[2:], rec.Label)
		vals := payload[2+len(rec.Label):]
		for j, v := range rec.Row {
			binary.LittleEndian.PutUint64(vals[8*j:], math.Float64bits(v))
		}
		binary.LittleEndian.PutUint64(rhdr[0:], uint64(rec.Index))
		binary.LittleEndian.PutUint32(rhdr[8:], uint32(plen))
		binary.LittleEndian.PutUint32(rhdr[12:], crc32.Checksum(payload, crcTable))
	}
	return buf, nil
}

// Append encodes recs, writes them at the tail and fsyncs once. When
// Append returns nil the whole batch is durable: a crash at any later
// moment replays every record. On error nothing is considered
// acknowledged (a partial tail write is truncated away by the next
// replay).
func (w *WAL) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf, err := encodeRecords(nil, w.cols, recs)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("ingest: WAL is closed")
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return fmt.Errorf("ingest: WAL append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ingest: WAL sync: %w", err)
	}
	w.size += int64(len(buf))
	w.syncs++
	return nil
}

// Checkpoint atomically replaces the log's contents with recs (the rows
// still hot after a compaction): a fresh WAL is written beside the old
// one, fsynced, and renamed into place, then the handle swaps to the new
// file. A crash at any point leaves either the old complete log or the
// new one — never a partial log.
func (w *WAL) Checkpoint(recs []Record) error {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[8:], walVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(w.cols))
	buf, err := encodeRecords(hdr, w.cols, recs)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("ingest: WAL is closed")
	}
	err = atomicio.WriteFile(w.path, func(f *os.File) error {
		_, werr := f.Write(buf)
		return werr
	})
	if err != nil {
		return fmt.Errorf("ingest: WAL checkpoint: %w", err)
	}
	// The old handle now points at an unlinked inode; reopen the new log.
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: reopen WAL after checkpoint: %w", err)
	}
	w.f.Close()
	w.f = f
	w.size = int64(len(buf))
	w.syncs++
	return nil
}

// Size returns the log's current byte size.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Syncs returns the number of fsync barriers performed (one per
// acknowledged batch plus one per checkpoint).
func (w *WAL) Syncs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Close releases the file handle. Pending data is already durable (every
// Append fsyncs), so Close performs no flush.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

var _ io.Closer = (*WAL)(nil)
