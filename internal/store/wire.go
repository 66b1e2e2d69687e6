package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"seqstore/internal/seqerr"
)

// ErrCorrupt reports structurally invalid payload data. It wraps
// seqerr.ErrCorrupt so facade and server callers can classify it.
var ErrCorrupt = fmt.Errorf("store: corrupt payload (%w)", seqerr.ErrCorrupt)

// maxSliceLen bounds decoded slice lengths so a corrupt length prefix cannot
// trigger a huge allocation. 1<<31 numbers = 16 GiB, far beyond any store we
// produce.
const maxSliceLen = 1 << 31

// MaxDecodeElems bounds the element count of any matrix a codec
// materializes while decoding (rows·k, cols·k, …). Codecs must validate
// decoded dimension products against it before allocating, so a corrupt
// header cannot trigger a makeslice panic or a runaway allocation.
const MaxDecodeElems = 1 << 31

// DimsSane reports whether every pairwise product of the given non-negative
// dimension values stays within MaxDecodeElems.
func DimsSane(dims ...int) bool {
	for _, d := range dims {
		if d < 0 || int64(d) > MaxDecodeElems {
			return false
		}
	}
	for i := range dims {
		for j := i + 1; j < len(dims); j++ {
			if int64(dims[i])*int64(dims[j]) > MaxDecodeElems {
				return false
			}
		}
	}
	return true
}

// Writer is a little-endian binary writer with sticky error handling, so
// encode paths can chain calls and check the error once. Numbers are encoded
// in a scratch buffer the Writer owns — a stack array handed to the
// underlying io.Writer would escape to the heap once per number — and runs of
// numbers fill it before each write.
type Writer struct {
	w       *bufio.Writer
	err     error
	scratch [4096]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	if bw, ok := w.(*bufio.Writer); ok {
		return &Writer{w: bw}
	}
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Bytes writes raw bytes.
func (w *Writer) Bytes(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// U16 writes a uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.scratch[:], v)
	w.Bytes(w.scratch[:2])
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.scratch[:], v)
	w.Bytes(w.scratch[:4])
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.Bytes(w.scratch[:8])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F32 writes v rounded to float32 (the paper's b=4 bytes-per-number
// setting).
func (w *Writer) F32(v float64) { w.U32(math.Float32bits(float32(v))) }

// FP writes v at the given precision (4 or 8 bytes). Invalid precisions
// poison the writer.
func (w *Writer) FP(v float64, prec int) {
	switch prec {
	case 8:
		w.F64(v)
	case 4:
		w.F32(v)
	default:
		if w.err == nil {
			w.err = fmt.Errorf("store: unsupported precision %d", prec)
		}
	}
}

// FPSlice writes the numbers of v back to back at the given precision, with
// no length prefix: the bytes of one FP call per element.
func (w *Writer) FPSlice(v []float64, prec int) {
	if prec != 4 && prec != 8 {
		w.FP(0, prec) // poisons the writer
		return
	}
	for len(v) > 0 {
		run := v[:min(len(v), len(w.scratch)/prec)]
		v = v[len(run):]
		if prec == 8 {
			for i, x := range run {
				binary.LittleEndian.PutUint64(w.scratch[8*i:], math.Float64bits(x))
			}
		} else {
			for i, x := range run {
				binary.LittleEndian.PutUint32(w.scratch[4*i:], math.Float32bits(float32(x)))
			}
		}
		w.Bytes(w.scratch[:len(run)*prec])
	}
}

// F64Slice writes a length-prefixed []float64.
func (w *Writer) F64Slice(v []float64) {
	w.U64(uint64(len(v)))
	w.FPSlice(v, 8)
}

// I32Slice writes a length-prefixed []int32.
func (w *Writer) I32Slice(v []int32) {
	w.U64(uint64(len(v)))
	for len(v) > 0 {
		run := v[:min(len(v), len(w.scratch)/4)]
		v = v[len(run):]
		for i, x := range run {
			binary.LittleEndian.PutUint32(w.scratch[4*i:], uint32(x))
		}
		w.Bytes(w.scratch[:len(run)*4])
	}
}

// ByteSlice writes a length-prefixed []byte.
func (w *Writer) ByteSlice(v []byte) {
	w.U64(uint64(len(v)))
	w.Bytes(v)
}

// str writes s as ByteSlice([]byte(s)) would, without the copy.
func (w *Writer) str(s string) {
	w.U64(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

// Reader is the matching little-endian binary reader with sticky errors;
// like the Writer it decodes numbers through a scratch buffer of its own.
type Reader struct {
	r       io.Reader
	err     error
	scratch [8]byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// ReadFull fills b.
func (r *Reader) ReadFull(b []byte) {
	if r.err != nil {
		return
	}
	_, r.err = io.ReadFull(r.r, b)
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	b := r.scratch[:2]
	r.ReadFull(b)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.scratch[:4]
	r.ReadFull(b)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.scratch[:8]
	r.ReadFull(b)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F32 reads a float32 written by Writer.F32, widened to float64.
func (r *Reader) F32() float64 {
	return float64(math.Float32frombits(r.U32()))
}

// FP reads a value at the given precision (4 or 8 bytes).
func (r *Reader) FP(prec int) float64 {
	switch prec {
	case 8:
		return r.F64()
	case 4:
		return r.F32()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("store: unsupported precision %d", prec)
		}
		return 0
	}
}

// Len reads a length prefix and validates it against maxSliceLen.
func (r *Reader) Len() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > maxSliceLen {
		r.err = fmt.Errorf("%w: absurd length %d", ErrCorrupt, n)
		return 0
	}
	return int(n)
}

// F64Slice reads a length-prefixed []float64.
func (r *Reader) F64Slice() []float64 {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// I32Slice reads a length-prefixed []int32.
func (r *Reader) I32Slice() []int32 {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.U32())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// ByteSlice reads a length-prefixed []byte.
func (r *Reader) ByteSlice() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	out := make([]byte, n)
	r.ReadFull(out)
	if r.err != nil {
		return nil
	}
	return out
}
