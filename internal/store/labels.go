package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"seqstore/internal/seqerr"
)

// Labels are optional row/column names stored alongside a compressed store
// — the "customers" and "days" of the paper's warehouse setting, so queries
// can be phrased as ("GHI Inc.", "1996-07-10") instead of (2, 191). Either
// slice may be nil (unlabeled axis); when present its length must match
// the store's dimension.
type Labels struct {
	Rows []string
	Cols []string
}

// maxLabelLen bounds a single decoded label.
const maxLabelLen = 1 << 16

// Validate checks label counts against the store dimensions.
func (l *Labels) Validate(rows, cols int) error {
	if l == nil {
		return nil
	}
	if l.Rows != nil && len(l.Rows) != rows {
		return fmt.Errorf("store: %d row labels for %d rows", len(l.Rows), rows)
	}
	if l.Cols != nil && len(l.Cols) != cols {
		return fmt.Errorf("store: %d column labels for %d columns", len(l.Cols), cols)
	}
	return nil
}

// WriteLabeled serializes s into w as a v2 .sqz container with optional
// axis labels: a fixed header followed by the label section and method
// payload packed into CRC32C-checksummed frames (see frame.go).
func WriteLabeled(w io.Writer, s Encoder, labels *Labels) error {
	rows, cols := s.Dims()
	if err := labels.Validate(rows, cols); err != nil {
		return err
	}
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 1<<16)
	}
	hdr := make([]byte, containerHeaderSize)
	copy(hdr, containerMagic)
	binary.LittleEndian.PutUint32(hdr[8:], containerVersion)
	binary.LittleEndian.PutUint16(hdr[12:], uint16(s.Method()))
	binary.LittleEndian.PutUint16(hdr[14:], FlagFramedChecksums)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	fw := newFrameWriter(bw, hdr)
	sw := NewWriter(fw)
	writeLabelSection(sw, labels)
	if err := sw.Err(); err != nil {
		return err
	}
	if err := s.EncodePayload(sw); err != nil {
		return err
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadLabeled deserializes a .sqz container of either version, returning
// the store and any stored labels (nil when the container carries none).
// For v2 containers every frame is checksum-verified before its bytes
// reach the codec; damage surfaces as a *seqerr.CorruptError naming the
// frame and offset, never as silently wrong data.
func ReadLabeled(r io.Reader) (Store, *Labels, error) {
	hdr := make([]byte, containerHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, nil, fmt.Errorf("store: read header: %w (%w)", err, seqerr.ErrCorrupt)
	}
	if string(hdr[:8]) != containerMagic {
		return nil, nil, ErrBadContainer
	}
	version := binary.LittleEndian.Uint32(hdr[8:])
	method := Method(binary.LittleEndian.Uint16(hdr[12:]))
	flags := binary.LittleEndian.Uint16(hdr[14:])
	var (
		br *Reader
		fr *frameReader
	)
	switch version {
	case containerVersionV1:
		br = NewReader(r) // legacy: unchecksummed byte stream
	case containerVersion:
		if flags&FlagFramedChecksums == 0 {
			return nil, nil, fmt.Errorf("%w: unknown container flags %#x", ErrBadVersion, flags)
		}
		fr = newFrameReader(r, hdr)
		br = NewReader(fr)
	default:
		return nil, nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	labels, err := readLabelSection(br)
	if err != nil {
		return nil, nil, err
	}
	codecMu.RLock()
	dec, ok := codecs[method]
	codecMu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %v", ErrNoCodec, method)
	}
	s, err := dec(br)
	if err != nil {
		return nil, nil, fmt.Errorf("store: decode %v payload: %w", method, err)
	}
	if fr != nil {
		if err := fr.expectEnd(); err != nil {
			return nil, nil, err
		}
	}
	rows, cols := s.Dims()
	if err := labels.Validate(rows, cols); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, labels, nil
}

func writeLabelSection(w *Writer, labels *Labels) {
	if labels == nil || (labels.Rows == nil && labels.Cols == nil) {
		w.U16(0)
		return
	}
	w.U16(1)
	writeStrings(w, labels.Rows)
	writeStrings(w, labels.Cols)
}

func readLabelSection(r *Reader) (*Labels, error) {
	flag := r.U16()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if flag == 0 {
		return nil, nil
	}
	if flag != 1 {
		return nil, fmt.Errorf("%w: label flag %d", ErrCorrupt, flag)
	}
	rows, err := readStrings(r)
	if err != nil {
		return nil, err
	}
	cols, err := readStrings(r)
	if err != nil {
		return nil, err
	}
	return &Labels{Rows: rows, Cols: cols}, nil
}

func writeStrings(w *Writer, ss []string) {
	w.U64(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func readStrings(r *Reader) ([]string, error) {
	n := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		b := r.ByteSlice()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(b) > maxLabelLen {
			return nil, fmt.Errorf("%w: label of %d bytes", ErrCorrupt, len(b))
		}
		out = append(out, string(b))
	}
	return out, nil
}
