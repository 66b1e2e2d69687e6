// Package faultio injects storage and network faults — bit flips,
// truncation, short reads, write-time crashes, stalls and resets — into
// the io layers underneath matio, the .sqz container and the proxy's shard
// channels, at byte-precise offsets. It exists for the corruption- and
// failure-detection test suites: every storage fault injected here must
// surface from the read path as a typed *seqerr.CorruptError (never as
// silently wrong data), every injected write crash must leave the atomic
// save protocol holding either the old file or the new one, and every
// network fault must surface as a typed error within the caller's
// deadline.
//
// Three styles of injection are provided:
//
//   - wrappers (ReaderAt, Writer) that corrupt the byte stream in flight,
//     for use with matio.OpenReaderAt and the container writers;
//   - file mutators (FlipBit, Truncate, CorruptRange) that damage a file
//     on disk in place, for end-to-end tests through path-based APIs;
//   - Conn, a net.Conn that stalls, resets mid-write or truncates what it
//     reads.
package faultio

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// ErrInjected marks every fault this package raises, so tests can tell an
// injected failure from a real one.
var ErrInjected = errors.New("faultio: injected fault")

// --- ReaderAt wrapper -------------------------------------------------------

// ReaderAt wraps an io.ReaderAt and applies configured read-side faults.
// Faults may be added between reads; the wrapper is safe for concurrent
// readers, matching matio.File's concurrency contract.
type ReaderAt struct {
	base io.ReaderAt
	size int64

	mu       sync.Mutex
	flips    map[int64]byte // offset → xor mask
	truncAt  int64          // reads at/after this offset hit EOF; <0 disabled
	failAt   int64          // reads covering this offset fail; <0 disabled
	failErr  error
	shortCnt int // remaining reads to cut short (one byte less)
}

// NewReaderAt wraps base, whose readable extent is size bytes.
func NewReaderAt(base io.ReaderAt, size int64) *ReaderAt {
	return &ReaderAt{base: base, size: size, flips: map[int64]byte{},
		truncAt: -1, failAt: -1}
}

// Size returns the apparent size after any truncation fault.
func (r *ReaderAt) Size() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.truncAt >= 0 && r.truncAt < r.size {
		return r.truncAt
	}
	return r.size
}

// FlipBit corrupts the byte at off by XORing 1<<bit into every read that
// covers it.
func (r *ReaderAt) FlipBit(off int64, bit uint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flips[off] ^= 1 << (bit % 8)
}

// CorruptRange XORs 0xFF over [off, off+n) on every read.
func (r *ReaderAt) CorruptRange(off int64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := int64(0); i < int64(n); i++ {
		r.flips[off+i] ^= 0xFF
	}
}

// TruncateAt makes the file appear to end at off: reads beyond it see EOF.
func (r *ReaderAt) TruncateAt(off int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.truncAt = off
}

// FailAt makes any read covering off return err (ErrInjected when nil).
func (r *ReaderAt) FailAt(off int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	r.failAt, r.failErr = off, err
}

// ShortRead cuts the next n reads one byte short (with io.ErrUnexpectedEOF,
// per the io.ReaderAt contract for partial reads).
func (r *ReaderAt) ShortRead(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shortCnt = n
}

// Clear removes all configured faults.
func (r *ReaderAt) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flips = map[int64]byte{}
	r.truncAt, r.failAt, r.failErr, r.shortCnt = -1, -1, nil, 0
}

// ReadAt implements io.ReaderAt with the configured faults applied.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	truncAt, failAt, failErr := r.truncAt, r.failAt, r.failErr
	short := false
	if r.shortCnt > 0 && len(p) > 0 {
		r.shortCnt--
		short = true
	}
	r.mu.Unlock()

	if failAt >= 0 && off <= failAt && failAt < off+int64(len(p)) {
		return 0, failErr
	}
	want := len(p)
	if truncAt >= 0 {
		if off >= truncAt {
			return 0, io.EOF
		}
		if off+int64(want) > truncAt {
			want = int(truncAt - off)
		}
	}
	if short && want > 0 {
		want--
	}
	n, err := r.base.ReadAt(p[:want], off)
	r.mu.Lock()
	for i := 0; i < n; i++ {
		if m, ok := r.flips[off+int64(i)]; ok {
			p[i] ^= m
		}
	}
	r.mu.Unlock()
	if err == nil && n < len(p) {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// --- Writer wrapper ---------------------------------------------------------

// Writer wraps an io.Writer and simulates a crash at a configured byte
// offset: bytes up to the offset are written through, then every write
// fails with ErrInjected. Combined with atomicio, a test can prove that a
// save crashing at any offset leaves the destination path intact.
type Writer struct {
	w       io.Writer
	n       int64 // bytes written so far
	crashAt int64 // fail once n would exceed this; <0 disabled
}

// NewWriter wraps w with no crash configured.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, crashAt: -1} }

// CrashAfter makes the writer fail once n total bytes have been written.
// The write that crosses the threshold is partially applied — exactly what
// a real crash mid-write does.
func (w *Writer) CrashAfter(n int64) { w.crashAt = n }

// Written returns the number of bytes written through so far.
func (w *Writer) Written() int64 { return w.n }

// Write implements io.Writer with the crash fault applied.
func (w *Writer) Write(p []byte) (int, error) {
	if w.crashAt < 0 || w.n+int64(len(p)) <= w.crashAt {
		n, err := w.w.Write(p)
		w.n += int64(n)
		return n, err
	}
	allowed := int(w.crashAt - w.n)
	if allowed < 0 {
		allowed = 0
	}
	n, err := w.w.Write(p[:allowed])
	w.n += int64(n)
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("%w: simulated crash after %d bytes", ErrInjected, w.n)
}

// --- Conn wrapper -----------------------------------------------------------

// Conn wraps a net.Conn and applies configured network faults. Faults may
// be armed while the connection is in use; offsets count from the moment a
// fault is armed. Close unblocks a stalled read, as closing a real
// connection does.
type Conn struct {
	net.Conn
	closed    chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	delay   time.Duration
	written int64
	read    int64
	resetAt int64 // writes past this many bytes fail and reset; <0 disabled
	truncAt int64 // reads past this many bytes see EOF; <0 disabled
}

// NewConn wraps c with no fault armed.
func NewConn(c net.Conn) *Conn {
	return &Conn{Conn: c, closed: make(chan struct{}), resetAt: -1, truncAt: -1}
}

// Delay makes every read wait d before it starts.
func (c *Conn) Delay(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delay = d
}

// ResetAfterWrite makes the connection fail once n more bytes have been
// written: the write that crosses the offset is partially applied, and the
// connection is then reset (closed with no linger), as a crashed peer or a
// broken network path leaves it.
func (c *Conn) ResetAfterWrite(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetAt = c.written + n
}

// TruncateRead makes the read stream end after n more bytes: later reads
// see io.EOF, as a peer that died mid-answer leaves them.
func (c *Conn) TruncateRead(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.truncAt = c.read + n
}

// Read implements net.Conn with the delay and truncation faults applied.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	delay, truncAt, read := c.delay, c.truncAt, c.read
	c.mu.Unlock()
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-c.closed:
			t.Stop()
			return 0, net.ErrClosed
		}
	}
	if truncAt >= 0 {
		if read >= truncAt {
			return 0, io.EOF
		}
		if left := truncAt - read; int64(len(p)) > left {
			p = p[:left]
		}
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write implements net.Conn with the reset fault applied.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	resetAt, written := c.resetAt, c.written
	c.mu.Unlock()
	if resetAt < 0 || written+int64(len(p)) <= resetAt {
		n, err := c.Conn.Write(p)
		c.mu.Lock()
		c.written += int64(n)
		c.mu.Unlock()
		return n, err
	}
	n, _ := c.Conn.Write(p[:max(resetAt-written, 0)])
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
	return n, fmt.Errorf("%w: connection reset after %d bytes", ErrInjected, written+int64(n))
}

// Close closes the connection and wakes a stalled read.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// --- On-disk mutators -------------------------------------------------------

// FlipBit XORs 1<<bit into the byte at off of the file at path.
func FlipBit(path string, off int64, bit uint) error {
	return mutate(path, func(data []byte) ([]byte, error) {
		if off < 0 || off >= int64(len(data)) {
			return nil, fmt.Errorf("faultio: offset %d outside %d-byte file", off, len(data))
		}
		data[off] ^= 1 << (bit % 8)
		return data, nil
	})
}

// CorruptRange XORs 0xFF over [off, off+n) of the file at path.
func CorruptRange(path string, off int64, n int) error {
	return mutate(path, func(data []byte) ([]byte, error) {
		if off < 0 || off+int64(n) > int64(len(data)) {
			return nil, fmt.Errorf("faultio: range [%d,%d) outside %d-byte file",
				off, off+int64(n), len(data))
		}
		for i := int64(0); i < int64(n); i++ {
			data[off+i] ^= 0xFF
		}
		return data, nil
	})
}

// Truncate cuts the file at path down to size bytes.
func Truncate(path string, size int64) error {
	return os.Truncate(path, size)
}

func mutate(path string, fn func([]byte) ([]byte, error)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data, err = fn(data)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
