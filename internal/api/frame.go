package api

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strings"
)

// Frames are the binary form of the three bodies a proxy asks a store node
// for: CellsResponse, RowsResponse and BatchAggregateResponse. A node
// renders one only for a request whose Accept header names FrameType (the
// proxy's shard client sends it); every other caller, and every error
// envelope, gets JSON. A frame is a 4-byte magic and then little-endian
// fixed-width fields: integers as int64, counts and lengths as uint32,
// floats as their IEEE bits (NaN and ±Inf included), strings and byte
// fields length-prefixed.
//
//	cells "SQC1" · count · n · n × (i · j · value · row · col)
//	rows  "SQR1" · count · n · n × (i · m · m × value)
//	batch "SQB1" · took · errors u8 · n · n × (status · rows · cols ·
//	      hasValue u8 · value · f · code · error · partial · explain)
//
// A partial is its SQP1 frame (query.Partial.MarshalBinary); an explain
// block rides as its JSON, which is rare and keeps one item shape. A
// decoded value goes back through Float, exactly as the node built it, so
// a decoded body renders the node's JSON bytes.

// FrameType is the media type of a frame.
const FrameType = "application/x-seqstore-frame"

const (
	cellsMagic = "SQC1"
	rowsMagic  = "SQR1"
	batchMagic = "SQB1"
)

var frameContentType = []string{FrameType}

// Minimum encoded sizes of one element, which bound a decoded count by the
// bytes left before anything is allocated.
const (
	minCellSize = 3*8 + 2*4
	minRowSize  = 8 + 4
	minItemSize = 3*8 + 1 + 8 + 5*4
)

// IsFrame reports whether a media type (a Content-Type, or one entry of an
// Accept list, parameters allowed) is FrameType.
func IsFrame(mediaType string) bool {
	mt, _, _ := strings.Cut(mediaType, ";")
	return strings.EqualFold(strings.TrimSpace(mt), FrameType)
}

// acceptsFrame reports whether an Accept header names FrameType.
func acceptsFrame(accept []string) bool {
	for _, list := range accept {
		for list != "" {
			var mt string
			mt, list, _ = strings.Cut(list, ",")
			if IsFrame(mt) {
				return true
			}
		}
	}
	return false
}

// appendFrame appends body's frame, recycling a store node's row buffers,
// and reports false for a body that has no frame.
func appendFrame(b []byte, body interface{}) ([]byte, bool, error) {
	switch v := body.(type) {
	case CellsResponse:
		return v.appendFrame(b), true, nil
	case RowsResponse:
		defer v.recycle()
		return v.appendFrame(b), true, nil
	case BatchAggregateResponse:
		b, err := v.appendFrame(b)
		return b, true, err
	}
	return b, false, nil
}

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

func appendBits(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendLen(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

func appendFlag(b []byte, f bool) []byte {
	if f {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendField[S string | []byte](b []byte, s S) []byte {
	return append(appendLen(b, len(s)), s...)
}

func (c CellsResponse) appendFrame(b []byte) []byte {
	b = appendLen(appendInt(append(b, cellsMagic...), c.Count), len(c.Cells))
	for _, cell := range c.Cells {
		b = appendBits(appendInt(appendInt(b, cell.I), cell.J), NumValue(cell.Value, cell.Nonfinite))
		b = appendField(appendField(b, cell.Row), cell.Col)
	}
	return b
}

func (r RowsResponse) appendFrame(b []byte) []byte {
	b = appendLen(appendInt(append(b, rowsMagic...), r.Count), len(r.Rows))
	for _, row := range r.Rows {
		b = appendInt(b, row.I)
		if row.row != nil {
			b = appendLen(b, len(*row.row))
			for _, v := range *row.row {
				b = appendBits(b, v)
			}
			continue
		}
		b = appendLen(b, len(row.Values))
		for _, v := range row.Values {
			b = appendBits(b, NumValue(v, ""))
		}
	}
	return b
}

func (r BatchAggregateResponse) appendFrame(b []byte) ([]byte, error) {
	b = appendLen(appendFlag(appendInt(append(b, batchMagic...), int(r.Took)), r.Errors), len(r.Items))
	for _, it := range r.Items {
		b = appendInt(appendInt(appendInt(b, it.Status), it.Rows), it.Cols)
		hasValue, v := it.Value != nil || it.Nonfinite != "", 0.0
		if hasValue {
			v = NumValue(it.Value, it.Nonfinite)
		}
		b = appendBits(appendFlag(b, hasValue), v)
		b = appendField(appendField(appendField(b, it.F), it.Code), it.Error)
		b = appendField(b, it.Partial)
		var explain []byte
		if it.Explain != nil {
			var err error
			if explain, err = json.Marshal(it.Explain); err != nil {
				return b, err
			}
		}
		b = appendField(b, explain)
	}
	return b, nil
}

// errFrame is every decoding failure: a frame is the node's answer or it is
// not, and which field broke is not something a caller can act on.
var errFrame = errors.New("api: malformed frame")

// frameReader consumes a frame front to back; the first short read sets
// err, after which every read returns zero.
type frameReader struct {
	d   []byte
	err error
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil || n > len(r.d) {
		r.err = errFrame
		return nil
	}
	p := r.d[:n:n]
	r.d = r.d[n:]
	return p
}

func (r *frameReader) u32() int {
	if p := r.take(4); p != nil {
		return int(binary.LittleEndian.Uint32(p))
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) int() int { return int(int64(r.u64())) }

// flag reads a byte that must be 0 or 1.
func (r *frameReader) flag() bool {
	p := r.take(1)
	if p != nil && p[0] > 1 {
		r.err = errFrame
	}
	return p != nil && p[0] == 1
}

func (r *frameReader) float() float64 { return math.Float64frombits(r.u64()) }

// count reads an element count, refused when its elements, each at least
// size bytes, cannot fit in what is left.
func (r *frameReader) count(size int) int {
	n := r.u32()
	if n > len(r.d)/size {
		r.err = errFrame
		return 0
	}
	return n
}

// field reads a length-prefixed field, aliasing the frame; empty is nil.
func (r *frameReader) field() []byte {
	if p := r.take(r.u32()); len(p) > 0 {
		return p
	}
	return nil
}

// DecodeFrame decodes a frame into out, which is a *CellsResponse, a
// *RowsResponse or a *BatchAggregateResponse. Every count is bounded by
// the bytes left before anything is allocated, so a hostile frame costs
// O(len(data)); a frame that is short, carries trailing bytes or is of
// another shape errors, and out is then untouched. Decoded rows hold
// pooled buffers, rendered as a store node's rows are; a decoded partial
// aliases data.
func DecodeFrame(data []byte, out interface{}) error {
	r := &frameReader{d: data}
	switch v := out.(type) {
	case *CellsResponse:
		if c := r.cells(); r.finish() == nil {
			*v = c
		}
	case *RowsResponse:
		rows := r.rows()
		if r.finish() == nil {
			*v = rows
			break
		}
		rows.recycle()
	case *BatchAggregateResponse:
		if b := r.batch(); r.finish() == nil {
			*v = b
		}
	default:
		return errors.New("api: no frame for this body")
	}
	return r.err
}

// magic consumes a frame's magic.
func (r *frameReader) magic(m string) {
	if string(r.take(len(m))) != m {
		r.err = errFrame
	}
}

// finish fails a frame with bytes left over.
func (r *frameReader) finish() error {
	if r.err == nil && len(r.d) > 0 {
		r.err = errFrame
	}
	return r.err
}

func (r *frameReader) cells() CellsResponse {
	r.magic(cellsMagic)
	c := CellsResponse{Count: r.int()}
	c.Cells = make([]CellResponse, r.count(minCellSize))
	for k := 0; k < len(c.Cells) && r.err == nil; k++ {
		cell := &c.Cells[k]
		cell.I, cell.J = r.int(), r.int()
		cell.Value, cell.Nonfinite = Float(r.float())
		cell.Row, cell.Col = string(r.field()), string(r.field())
	}
	return c
}

func (r *frameReader) rows() RowsResponse {
	r.magic(rowsMagic)
	out := RowsResponse{Count: r.int()}
	out.Rows = make([]RowResponse, r.count(minRowSize))
	for k := range out.Rows {
		i, m := r.int(), r.count(8)
		if r.err != nil {
			break
		}
		buf := rowBufs.Get().(*[]float64)
		row := *buf
		if cap(row) < m {
			row = make([]float64, m)
		}
		row = row[:m]
		nonfinite := 0
		for j := range row {
			v := r.float()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				nonfinite++
			}
			row[j] = v
		}
		*buf = row
		out.Rows[k] = RowResponse{I: i, Nonfinite: nonfinite, row: buf}
	}
	return out
}

func (r *frameReader) batch() BatchAggregateResponse {
	r.magic(batchMagic)
	b := BatchAggregateResponse{Took: int64(r.int()), Errors: r.flag()}
	b.Items = make([]BatchAggregateItem, r.count(minItemSize))
	for k := 0; k < len(b.Items) && r.err == nil; k++ {
		it := &b.Items[k]
		it.Status, it.Rows, it.Cols = r.int(), r.int(), r.int()
		if hasValue, v := r.flag(), r.float(); hasValue {
			it.Value, it.Nonfinite = Float(v)
		}
		it.F, it.Code, it.Error = string(r.field()), string(r.field()), string(r.field())
		it.Partial = r.field()
		if explain := r.field(); explain != nil {
			it.Explain = new(Explain)
			if json.Unmarshal(explain, it.Explain) != nil {
				r.err = errFrame
			}
		}
	}
	return b
}
