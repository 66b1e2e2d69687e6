// Package matio provides out-of-core storage for the N×M data matrix.
//
// The paper's setting is a matrix too large for memory: N is millions of
// rows while M is a few hundred columns, data is read in row-sized blocks,
// and the compression algorithms are judged by how many passes they make
// over the file and how many disk accesses a reconstruction needs. This
// package supplies:
//
//   - a versioned binary row-major matrix file format (".smx") with
//     per-page CRC32C checksums and atomic, crash-safe writes (see
//     format.go for the layout; legacy v1 files remain readable),
//   - streaming one-pass row scans and random row access, both of which
//     verify page checksums before returning data — a damaged page
//     surfaces as a typed *seqerr.CorruptError, never as silently wrong
//     floats,
//   - an in-memory implementation of the same interfaces, and
//   - access counters so tests can assert IO complexity claims (e.g. "a
//     single cell reconstruction touches exactly one U row").
package matio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"seqstore/internal/atomicio"
	"seqstore/internal/linalg"
	"seqstore/internal/seqerr"
)

// Common errors. Each wraps the matching seqerr sentinel, so callers can
// classify failures with errors.Is across package boundaries.
var (
	ErrBadMagic    = fmt.Errorf("matio: not a seqstore matrix file (%w)", seqerr.ErrCorrupt)
	ErrBadVersion  = fmt.Errorf("matio: unsupported matrix file version (%w)", seqerr.ErrBadVersion)
	ErrRowRange    = fmt.Errorf("matio: row index out of range (%w)", seqerr.ErrOutOfRange)
	ErrShortFile   = fmt.Errorf("matio: file shorter than header declares (%w)", seqerr.ErrCorrupt)
	ErrRowMismatch = errors.New("matio: row length does not match matrix width")
	ErrRowCount    = errors.New("matio: wrong number of rows written")
)

// Stats counts simulated disk operations. Row granularity matches the
// paper's cost model: one row per block, one block per access.
type Stats struct {
	rowReads  atomic.Int64
	rowWrites atomic.Int64
	passes    atomic.Int64
}

// RowReads returns the number of random or sequential row fetches.
func (s *Stats) RowReads() int64 { return s.rowReads.Load() }

// RowWrites returns the number of rows written.
func (s *Stats) RowWrites() int64 { return s.rowWrites.Load() }

// Passes returns the number of full sequential scans started.
func (s *Stats) Passes() int64 { return s.passes.Load() }

// StatsSnapshot is a point-in-time copy of the counters, JSON-tagged so
// the serving layer's /metrics endpoint can expose the disk-access
// accounting directly.
type StatsSnapshot struct {
	RowReads  int64 `json:"row_reads"`
	RowWrites int64 `json:"row_writes"`
	Passes    int64 `json:"passes"`
}

// Snapshot captures the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		RowReads:  s.rowReads.Load(),
		RowWrites: s.rowWrites.Load(),
		Passes:    s.passes.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.rowReads.Store(0)
	s.rowWrites.Store(0)
	s.passes.Store(0)
}

// CountRead records one row fetch. Exported for RowSource implementations
// outside this package (e.g. synthetic streaming sources).
func (s *Stats) CountRead() { s.rowReads.Add(1) }

// CountPass records the start of one full sequential scan.
func (s *Stats) CountPass() { s.passes.Add(1) }

// RowSource is a matrix that can be scanned sequentially, one row at a time.
// This is the only capability the one-pass and multi-pass compression
// algorithms need, mirroring the tape/stream model of the paper.
type RowSource interface {
	// Dims returns (rows, cols).
	Dims() (int, int)
	// ScanRows calls fn for every row in order. The row slice is only valid
	// during the call. Returning a non-nil error aborts the scan.
	ScanRows(fn func(i int, row []float64) error) error
}

// RowReader is a matrix supporting random row access.
type RowReader interface {
	RowSource
	// ReadRow fills dst (length = cols) with row i.
	ReadRow(i int, dst []float64) error
}

// RangeScanner is a RowSource whose rows can also be scanned over a
// half-open row interval. Range scans are safe for concurrent use, which is
// what lets the compression passes shard one logical pass over the file
// across workers: each worker streams its own row ranges with its own
// buffer. A range scan does not count as a pass; a sharded driver calls
// StartPass once for the whole logical pass instead.
type RangeScanner interface {
	RowSource
	// ScanRowsRange calls fn for every row i in [start, end) in order. The
	// row slice is only valid during the call. Returning a non-nil error
	// aborts the scan.
	ScanRowsRange(start, end int, fn func(i int, row []float64) error) error
}

// PageSpanner reports how many distinct backing pages a row interval
// occupies — the unit an OS page cache actually fetches, as opposed to the
// paper's one-row-one-block accounting. The serving layer uses it to charge
// pages_touched to a request's cost ledger.
type PageSpanner interface {
	// PageSpan returns the number of distinct pages holding rows
	// [start, end), or 0 for an empty interval.
	PageSpan(start, end int) int
}

// PageSpan reports the pages spanned by rows [start, end) of src. Sources
// that don't implement PageSpanner (or pre-page v1 files, where PageSpan
// reports per-row granularity) are charged one page per row, matching the
// paper's block model.
func PageSpan(src RowSource, start, end int) int {
	if end <= start {
		return 0
	}
	if ps, ok := src.(PageSpanner); ok {
		return ps.PageSpan(start, end)
	}
	return end - start
}

// StartPass records one full sequential pass on sources that expose Stats.
// Sharded scans use it so that W workers covering [0,N) between them still
// count as a single pass, like the serial ScanRows they replace.
func StartPass(src RowSource) {
	type statser interface{ Stats() *Stats }
	if st, ok := src.(statser); ok {
		st.Stats().CountPass()
	}
}

// Range is a half-open row interval [Start, End).
type Range struct{ Start, End int }

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.End - r.Start }

// DefaultChunkRows is the chunk height used by Chunks when chunkRows <= 0.
const DefaultChunkRows = 1024

// Chunks splits [0, n) into fixed-height chunks. The chunk boundaries
// depend only on n and chunkRows — never on the worker count — so a
// parallel reduction that combines per-chunk results in chunk order is
// deterministic for any given worker count. chunkRows <= 0 selects
// DefaultChunkRows.
func Chunks(n, chunkRows int) []Range {
	if n <= 0 {
		return nil
	}
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	out := make([]Range, 0, (n+chunkRows-1)/chunkRows)
	for start := 0; start < n; start += chunkRows {
		end := start + chunkRows
		if end > n {
			end = n
		}
		out = append(out, Range{Start: start, End: end})
	}
	return out
}

// NumWorkers resolves a Workers option: w <= 0 means runtime.GOMAXPROCS(0) —
// the CPUs this process may use, not the ones the machine has, so a
// GOMAXPROCS=1 or quota-limited process does not over-shard — otherwise w
// itself.
func NumWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// --- On-disk implementation ------------------------------------------------

// CreateOpts tunes Create (the zero value is the default configuration).
type CreateOpts struct {
	// PageRows overrides the number of rows per checksummed page; 0 picks
	// a width-dependent default targeting ~8 KiB of data per page.
	PageRows int
}

// Writer streams rows into a new v2 .smx file. The data goes to a
// temporary file in the destination directory; only a successful Close
// fsyncs it and renames it over path, so a crash (or abandoned writer) at
// any earlier point leaves the destination untouched.
type Writer struct {
	f       *os.File // temp file; renamed to path on Close
	path    string   // final destination
	w       *bufio.Writer
	lay     layout
	written int
	buf     []byte
	stats   *Stats
	closed  bool

	pageCRC  uint32 // running CRC32C of the current page's data
	pageFill int    // rows accumulated in the current page
}

// Create starts a new matrix file with the given dimensions and default
// options. The caller must write exactly rows rows and then Close.
func Create(path string, rows, cols int) (*Writer, error) {
	return CreateOpts{}.Create(path, rows, cols)
}

// Create starts a new matrix file with these options.
func (o CreateOpts) Create(path string, rows, cols int) (*Writer, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matio: invalid dimensions %d×%d", rows, cols)
	}
	pageRows := o.PageRows
	if pageRows <= 0 {
		pageRows = defaultPageRows(cols)
	}
	f, err := atomicio.Create(path)
	if err != nil {
		return nil, fmt.Errorf("matio: create %s: %w", path, err)
	}
	w := &Writer{
		f:     f,
		path:  path,
		w:     bufio.NewWriterSize(f, 1<<16),
		lay:   layout{version: Version, rows: rows, cols: cols, pageRows: pageRows},
		buf:   make([]byte, 8*cols),
		stats: &Stats{},
	}
	if _, err := w.w.Write(encodeHeaderV2(rows, cols, pageRows)); err != nil {
		atomicio.Abort(f)
		return nil, fmt.Errorf("matio: write header %s: %w", path, err)
	}
	return w, nil
}

// WriteRow appends one row. Rows must arrive in order.
func (w *Writer) WriteRow(row []float64) error {
	if w.closed {
		return errors.New("matio: write after close")
	}
	if len(row) != w.lay.cols {
		return fmt.Errorf("%w: got %d, want %d", ErrRowMismatch, len(row), w.lay.cols)
	}
	if w.written >= w.lay.rows {
		return fmt.Errorf("%w: already wrote %d rows", ErrRowCount, w.lay.rows)
	}
	for j, v := range row {
		binary.LittleEndian.PutUint64(w.buf[j*8:], math.Float64bits(v))
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("matio: write row to %s: %w", w.path, err)
	}
	w.pageCRC = crc32.Update(w.pageCRC, castagnoli, w.buf)
	w.pageFill++
	w.written++
	w.stats.rowWrites.Add(1)
	if w.pageFill == w.lay.pageRows {
		if err := w.flushPageCRC(); err != nil {
			return err
		}
	}
	return nil
}

// flushPageCRC emits the CRC32C trailer of the just-completed page.
func (w *Writer) flushPageCRC() error {
	var b [checksumSize]byte
	binary.LittleEndian.PutUint32(b[:], w.pageCRC)
	if _, err := w.w.Write(b[:]); err != nil {
		return fmt.Errorf("matio: write page checksum to %s: %w", w.path, err)
	}
	w.pageCRC, w.pageFill = 0, 0
	return nil
}

// Close seals the file: the trailing partial page's checksum is written,
// the temporary file is fsynced, and only then renamed over the
// destination path. Closing before the declared row count was met (or any
// write error) aborts instead — the destination is left untouched.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.written != w.lay.rows {
		atomicio.Abort(w.f)
		return fmt.Errorf("%w: wrote %d of %d", ErrRowCount, w.written, w.lay.rows)
	}
	if w.pageFill > 0 {
		if err := w.flushPageCRC(); err != nil {
			atomicio.Abort(w.f)
			return err
		}
	}
	if err := w.w.Flush(); err != nil {
		atomicio.Abort(w.f)
		return fmt.Errorf("matio: flush %s: %w", w.path, err)
	}
	if err := atomicio.Commit(w.f, w.path); err != nil {
		return fmt.Errorf("matio: commit %s: %w", w.path, err)
	}
	return nil
}

// Abort discards the writer without publishing anything at the destination
// path. Safe to call after a failed WriteRow; a no-op after Close.
func (w *Writer) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	atomicio.Abort(w.f)
}

// Stats exposes the writer's IO counters.
func (w *Writer) Stats() *Stats { return w.stats }

// File is an open on-disk matrix supporting sequential scans and random row
// reads. All access is safe for concurrent use: random reads (ReadRow) use
// ReadAt with a pooled buffer, and sequential scans (ScanRows,
// ScanRowsRange) read through a SectionReader so they never share a seek
// position. Reads from v2 files verify the CRC32C of every page they touch
// before returning data.
type File struct {
	ra     io.ReaderAt
	closer io.Closer // nil when opened over a caller-owned ReaderAt
	path   string
	size   int64
	lay    layout
	stats  *Stats
	bufs   sync.Pool
}

// Open opens an existing .smx matrix file (either format version).
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("matio: open: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("matio: stat %s: %w", path, err)
	}
	m, err := OpenReaderAt(f, fi.Size(), path)
	if err != nil {
		f.Close()
		return nil, err
	}
	m.closer = f
	return m, nil
}

// OpenReaderAt opens a matrix over any io.ReaderAt spanning size bytes —
// the hook the fault-injection harness uses to corrupt reads in flight.
// name labels the source in errors. Closing the returned File does not
// close ra.
func OpenReaderAt(ra io.ReaderAt, size int64, name string) (*File, error) {
	hdr := make([]byte, headerSizeV2)
	n, err := ra.ReadAt(hdr, 0)
	if n < headerSizeV1 {
		if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("matio: open %s: %w: %d-byte file", name, ErrShortFile, size)
		}
		return nil, fmt.Errorf("matio: open %s: read header: %w", name, err)
	}
	if string(hdr[:8]) != Magic {
		return nil, fmt.Errorf("matio: open %s: %w", name, ErrBadMagic)
	}
	version := binary.LittleEndian.Uint32(hdr[8:])
	lay := layout{
		version: int(version),
		rows:    int(binary.LittleEndian.Uint64(hdr[16:])),
		cols:    int(binary.LittleEndian.Uint64(hdr[24:])),
	}
	switch version {
	case VersionV1:
		// No header checksum in v1; only sanity checks.
	case Version:
		if n < headerSizeV2 {
			return nil, fmt.Errorf("matio: open %s: %w: %d-byte file", name, ErrShortFile, size)
		}
		want := binary.LittleEndian.Uint32(hdr[44:48])
		if got := crc32.Checksum(hdr[:44], castagnoli); got != want {
			return nil, fmt.Errorf("matio: open %s: %w", name,
				seqerr.Corrupt(name, -1, 0, "header checksum mismatch: got %08x, want %08x", got, want))
		}
		if flags := binary.LittleEndian.Uint32(hdr[12:]); flags&FlagPageChecksums == 0 {
			return nil, fmt.Errorf("matio: open %s: %w: unknown layout flags %#x", name, ErrBadVersion, flags)
		}
		lay.pageRows = int(binary.LittleEndian.Uint32(hdr[32:]))
		if lay.pageRows <= 0 {
			return nil, fmt.Errorf("matio: open %s: %w", name,
				seqerr.Corrupt(name, -1, 0, "invalid pageRows %d", lay.pageRows))
		}
	default:
		return nil, fmt.Errorf("matio: open %s: %w: %d", name, ErrBadVersion, version)
	}
	if lay.rows < 0 || lay.cols < 0 {
		return nil, fmt.Errorf("matio: open %s: %w", name,
			seqerr.Corrupt(name, -1, 0, "negative dimensions %d×%d", lay.rows, lay.cols))
	}
	// Reject dimensions whose byte size overflows int64: the size check
	// below would otherwise compare against a wrapped-around value and
	// admit a hostile header claiming absurd dimensions.
	if lay.rows > math.MaxInt64/16 ||
		(lay.cols != 0 && int64(lay.rows) > math.MaxInt64/8/int64(lay.cols)) {
		return nil, fmt.Errorf("matio: open %s: %w", name,
			seqerr.Corrupt(name, -1, 0, "dimensions %d×%d overflow", lay.rows, lay.cols))
	}
	if want := lay.fileSize(); size < want {
		err := fmt.Errorf("matio: open %s: %w: have %d bytes, want %d", name, ErrShortFile, size, want)
		if lay.version == Version {
			// Locate the first page the truncation damaged, so the error
			// carries a page address like every other corruption.
			p := lay.numPages() - 1
			for p > 0 && lay.pageStart(p) >= size {
				p--
			}
			err = fmt.Errorf("%w (%w)", err, seqerr.Corrupt(name, p, lay.pageStart(p),
				"file truncated: have %d bytes, want %d", size, want))
		}
		return nil, err
	}
	m := &File{ra: ra, path: name, size: size, lay: lay, stats: &Stats{}}
	bufLen := 8 * lay.cols
	if lay.version == Version {
		// Size the page buffer by the largest real page (page 0), not the
		// header's raw pageRows: the file-size check above proved the file
		// holds pageDataBytes(0) bytes, so a hostile header claiming a huge
		// pageRows cannot trigger an allocation beyond the actual file size.
		bufLen = int(lay.pageDataBytes(0)) + checksumSize
	}
	m.bufs.New = func() interface{} { return make([]byte, bufLen) }
	return m, nil
}

// Dims returns (rows, cols).
func (m *File) Dims() (int, int) { return m.lay.rows, m.lay.cols }

// FormatVersion reports the file's on-disk format version (1 or 2).
func (m *File) FormatVersion() int { return m.lay.version }

// Path returns the file path (or the name given to OpenReaderAt).
func (m *File) Path() string { return m.path }

// PageSpan returns the number of distinct checksummed pages holding rows
// [start, end). v1 files have no pages; they report one page per row (each
// row read is its own I/O there).
func (m *File) PageSpan(start, end int) int {
	if end <= start {
		return 0
	}
	if m.lay.version == VersionV1 || m.lay.pageRows <= 0 {
		return end - start
	}
	return m.lay.pageOfRow(end-1) - m.lay.pageOfRow(start) + 1
}

// Stats exposes the file's IO counters.
func (m *File) Stats() *Stats { return m.stats }

// Close closes the underlying file (a no-op for OpenReaderAt sources).
func (m *File) Close() error {
	if m.closer == nil {
		return nil
	}
	return m.closer.Close()
}

// ReadRow reads row i into dst (one simulated disk access). On a v2 file
// the page holding the row is checksum-verified before any value is
// returned.
func (m *File) ReadRow(i int, dst []float64) error {
	if i < 0 || i >= m.lay.rows {
		return fmt.Errorf("%w: %d of %d", ErrRowRange, i, m.lay.rows)
	}
	if len(dst) != m.lay.cols {
		return fmt.Errorf("%w: dst %d, want %d", ErrRowMismatch, len(dst), m.lay.cols)
	}
	buf := m.bufs.Get().([]byte)
	defer m.bufs.Put(buf)
	if m.lay.version == VersionV1 {
		off := m.lay.rowOffsetV1(i)
		raw := buf[:8*m.lay.cols]
		if _, err := m.ra.ReadAt(raw, off); err != nil {
			return fmt.Errorf("matio: %s: read row %d at offset %d: %w", m.path, i, off, err)
		}
		decodeRow(raw, dst)
		m.stats.rowReads.Add(1)
		return nil
	}
	p := m.lay.pageOfRow(i)
	page, err := m.readPage(p, buf)
	if err != nil {
		return err
	}
	within := i - p*m.lay.pageRows
	decodeRow(page[int64(within)*m.lay.rowBytes():], dst)
	m.stats.rowReads.Add(1)
	return nil
}

// readPage fetches and checksum-verifies page p, returning its data bytes
// (a prefix of buf, which must have room for a full page plus trailer).
func (m *File) readPage(p int, buf []byte) ([]byte, error) {
	dataLen := m.lay.pageDataBytes(p)
	off := m.lay.pageStart(p)
	raw := buf[:dataLen+checksumSize]
	if _, err := m.ra.ReadAt(raw, off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("matio: %s: %w", m.path,
				seqerr.Corrupt(m.path, p, off, "page truncated"))
		}
		return nil, fmt.Errorf("matio: %s: read page %d at offset %d: %w", m.path, p, off, err)
	}
	want := binary.LittleEndian.Uint32(raw[dataLen:])
	if got := crc32.Checksum(raw[:dataLen], castagnoli); got != want {
		return nil, fmt.Errorf("matio: %s: %w", m.path,
			seqerr.Corrupt(m.path, p, off, "page checksum mismatch: got %08x, want %08x", got, want))
	}
	return raw[:dataLen], nil
}

// ScanRows streams all rows in order using buffered sequential IO. Each scan
// counts as one pass and rows rowReads.
func (m *File) ScanRows(fn func(i int, row []float64) error) error {
	m.stats.passes.Add(1)
	return m.ScanRowsRange(0, m.lay.rows, fn)
}

// ScanRowsRange streams rows [start, end) in order using buffered sequential
// IO over a private section reader, so any number of range scans (and random
// reads) may run concurrently. Each row costs one rowRead; no pass is
// counted — see StartPass. On v2 files every page overlapping the range is
// checksum-verified before its rows are delivered.
func (m *File) ScanRowsRange(start, end int, fn func(i int, row []float64) error) error {
	if start < 0 || end > m.lay.rows || start > end {
		return fmt.Errorf("%w: range [%d, %d) of %d", ErrRowRange, start, end, m.lay.rows)
	}
	if start == end {
		return nil
	}
	row := make([]float64, m.lay.cols)
	if m.lay.version == VersionV1 {
		off := m.lay.rowOffsetV1(start)
		r := bufio.NewReaderSize(
			io.NewSectionReader(m.ra, off, int64(end-start)*m.lay.rowBytes()), 1<<16)
		raw := make([]byte, m.lay.rowBytes())
		for i := start; i < end; i++ {
			if _, err := io.ReadFull(r, raw); err != nil {
				return fmt.Errorf("matio: %s: scan row %d at offset %d: %w",
					m.path, i, m.lay.rowOffsetV1(i), err)
			}
			decodeRow(raw, row)
			m.stats.rowReads.Add(1)
			if err := fn(i, row); err != nil {
				return err
			}
		}
		return nil
	}
	firstPage, lastPage := m.lay.pageOfRow(start), m.lay.pageOfRow(end-1)
	scanStart := m.lay.pageStart(firstPage)
	scanLen := m.lay.pageStart(lastPage) + m.lay.pageDataBytes(lastPage) + checksumSize - scanStart
	r := bufio.NewReaderSize(io.NewSectionReader(m.ra, scanStart, scanLen), 1<<16)
	pageBuf := make([]byte, int64(m.lay.pageRows)*m.lay.rowBytes()+checksumSize)
	for p := firstPage; p <= lastPage; p++ {
		dataLen := m.lay.pageDataBytes(p)
		raw := pageBuf[:dataLen+checksumSize]
		if _, err := io.ReadFull(r, raw); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return fmt.Errorf("matio: %s: %w", m.path,
					seqerr.Corrupt(m.path, p, m.lay.pageStart(p), "page truncated during scan"))
			}
			return fmt.Errorf("matio: %s: scan page %d at offset %d: %w",
				m.path, p, m.lay.pageStart(p), err)
		}
		want := binary.LittleEndian.Uint32(raw[dataLen:])
		if got := crc32.Checksum(raw[:dataLen], castagnoli); got != want {
			return fmt.Errorf("matio: %s: %w", m.path,
				seqerr.Corrupt(m.path, p, m.lay.pageStart(p),
					"page checksum mismatch: got %08x, want %08x", got, want))
		}
		lo, hi := p*m.lay.pageRows, p*m.lay.pageRows+m.lay.pageRowsIn(p)
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		for i := lo; i < hi; i++ {
			decodeRow(raw[int64(i-p*m.lay.pageRows)*m.lay.rowBytes():], row)
			m.stats.rowReads.Add(1)
			if err := fn(i, row); err != nil {
				return err
			}
		}
	}
	return nil
}

func decodeRow(raw []byte, dst []float64) {
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
	}
}

// WriteMatrix writes an in-memory matrix to path in .smx format (v2,
// atomically).
func WriteMatrix(path string, m *linalg.Matrix) error {
	w, err := Create(path, m.Rows(), m.Cols())
	if err != nil {
		return err
	}
	for i := 0; i < m.Rows(); i++ {
		if err := w.WriteRow(m.Row(i)); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// ReadMatrix loads an entire .smx file into memory. Intended for tests and
// small datasets; large datasets should be streamed via Open.
func ReadMatrix(path string) (*linalg.Matrix, error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, cols := f.Dims()
	out := linalg.NewMatrix(rows, cols)
	err = f.ScanRows(func(i int, row []float64) error {
		copy(out.Row(i), row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- In-memory implementation ----------------------------------------------

// Mem adapts an in-memory linalg.Matrix to the RowReader interface, with the
// same access accounting as the on-disk form so algorithms can be tested
// against either.
type Mem struct {
	m     *linalg.Matrix
	stats Stats
}

// NewMem wraps m. The matrix is not copied.
func NewMem(m *linalg.Matrix) *Mem { return &Mem{m: m} }

// Dims returns (rows, cols).
func (s *Mem) Dims() (int, int) { return s.m.Dims() }

// Stats exposes the IO counters.
func (s *Mem) Stats() *Stats { return &s.stats }

// Matrix returns the wrapped matrix.
func (s *Mem) Matrix() *linalg.Matrix { return s.m }

// PageSpan reports one page per row: memory-backed sources have no page
// structure, so the span degenerates to the paper's block model.
func (s *Mem) PageSpan(start, end int) int {
	if end <= start {
		return 0
	}
	return end - start
}

// ReadRow copies row i into dst.
func (s *Mem) ReadRow(i int, dst []float64) error {
	if i < 0 || i >= s.m.Rows() {
		return fmt.Errorf("%w: %d of %d", ErrRowRange, i, s.m.Rows())
	}
	if len(dst) != s.m.Cols() {
		return fmt.Errorf("%w: dst %d, want %d", ErrRowMismatch, len(dst), s.m.Cols())
	}
	copy(dst, s.m.Row(i))
	s.stats.rowReads.Add(1)
	return nil
}

// ScanRows streams all rows in order.
func (s *Mem) ScanRows(fn func(i int, row []float64) error) error {
	s.stats.passes.Add(1)
	return s.ScanRowsRange(0, s.m.Rows(), fn)
}

// ScanRowsRange streams rows [start, end) in order. Safe for concurrent use
// as long as the underlying matrix is not being resized; counts one rowRead
// per row and no pass. The rows delivered are counted once, as the scan
// ends: a row here costs a slice header, so one atomic add per row on the
// counter every concurrent scan shares would be most of the scan (sharded
// factored sums ran slower on two cores than on one).
func (s *Mem) ScanRowsRange(start, end int, fn func(i int, row []float64) error) error {
	if start < 0 || end > s.m.Rows() || start > end {
		return fmt.Errorf("%w: range [%d, %d) of %d", ErrRowRange, start, end, s.m.Rows())
	}
	for i := start; i < end; i++ {
		if err := fn(i, s.m.Row(i)); err != nil {
			s.stats.rowReads.Add(int64(i - start + 1))
			return err
		}
	}
	s.stats.rowReads.Add(int64(end - start))
	return nil
}

// Rows returns rows [start, end) in place, row-major: the matrix's own
// storage, to be read and not written. When count is set the rows count as
// read the way ScanRowsRange counts them, with one add for the range;
// without it they are rows a caller has already counted.
func (s *Mem) Rows(start, end int, count bool) ([]float64, error) {
	if start < 0 || end > s.m.Rows() || start > end {
		return nil, fmt.Errorf("%w: range [%d, %d) of %d", ErrRowRange, start, end, s.m.Rows())
	}
	if count {
		s.stats.rowReads.Add(int64(end - start))
	}
	c := s.m.Cols()
	return s.m.Data()[start*c : end*c : end*c], nil
}

// AppendRow grows the in-memory matrix by one row and returns its index.
// Only the memory-backed implementation supports appends; disk files are
// immutable once written.
func (s *Mem) AppendRow(row []float64) int {
	s.m.AppendRow(row)
	s.stats.rowWrites.Add(1)
	return s.m.Rows() - 1
}

// TruncateRows shrinks the in-memory matrix to its first n rows, undoing
// recent appends. Like AppendRow it exists only on the memory-backed
// implementation; fold-in rollback uses it to restore the pre-append state
// when a post-append step fails.
func (s *Mem) TruncateRows(n int) {
	s.m.TruncateRows(n)
}

var (
	_ RowReader    = (*File)(nil)
	_ RowReader    = (*Mem)(nil)
	_ RangeScanner = (*File)(nil)
	_ RangeScanner = (*Mem)(nil)
	_ PageSpanner  = (*File)(nil)
	_ PageSpanner  = (*Mem)(nil)
)
