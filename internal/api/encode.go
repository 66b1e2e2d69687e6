package api

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// Append encoders for the four point-read bodies. They write the bytes
// encoding/json writes for the same value, and fail where it fails — on a
// non-finite number behind a pointer, which Float never builds.
// TestPointReadBodiesMatchEncodingJSON and FuzzPointReadEncoding hold them
// to it. They use no reflection, and render a store node's rows straight
// from the reconstructed floats.

var errNonFinite = errors.New("api: JSON has no non-finite numbers")

// appendBody appends body's JSON: the point-read bodies through their
// encoders, recycling a store node's row buffers once rendered, anything
// else through encoding/json. A lone cell or row comes as a pointer to its
// batch-of-one element, which boxes without a copy.
func appendBody(b []byte, body interface{}) ([]byte, error) {
	switch v := body.(type) {
	case *CellResponse:
		return v.appendJSON(b)
	case CellsResponse:
		return v.appendJSON(b)
	case *RowResponse:
		defer v.recycle()
		return v.appendJSON(b)
	case RowsResponse:
		defer v.recycle()
		return v.appendJSON(b)
	}
	raw, err := json.Marshal(body)
	return append(b, raw...), err
}

func (c CellResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"i":`...)
	b = strconv.AppendInt(b, int64(c.I), 10)
	b = append(b, `,"j":`...)
	b = strconv.AppendInt(b, int64(c.J), 10)
	if c.Row != "" {
		b = appendString(append(b, `,"row":`...), c.Row)
	}
	if c.Col != "" {
		b = appendString(append(b, `,"col":`...), c.Col)
	}
	b, err := appendValue(append(b, `,"value":`...), c.Value)
	if err != nil {
		return b, err
	}
	if c.Nonfinite != "" {
		b = appendString(append(b, `,"nonfinite":`...), c.Nonfinite)
	}
	return append(b, '}'), nil
}

func (c CellsResponse) appendJSON(b []byte) ([]byte, error) {
	return appendBatch(b, c.Count, `,"cells":`, c.Cells, CellResponse.appendJSON)
}

func (r RowResponse) appendJSON(b []byte) (_ []byte, err error) {
	b = append(b, `{"i":`...)
	b = strconv.AppendInt(b, int64(r.I), 10)
	b = append(b, `,"values":`...)
	switch {
	case r.row != nil:
		b = append(b, '[')
		for j, v := range *r.row {
			if j > 0 {
				b = append(b, ',')
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				b = append(b, "null"...)
			} else {
				b = appendFloat(b, v)
			}
		}
		b = append(b, ']')
	case r.Values == nil:
		b = append(b, "null"...)
	default:
		b = append(b, '[')
		for j, v := range r.Values {
			if j > 0 {
				b = append(b, ',')
			}
			if b, err = appendValue(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if r.Nonfinite != 0 {
		b = append(b, `,"nonfinite":`...)
		b = strconv.AppendInt(b, int64(r.Nonfinite), 10)
	}
	return append(b, '}'), nil
}

func (r RowsResponse) appendJSON(b []byte) ([]byte, error) {
	return appendBatch(b, r.Count, `,"rows":`, r.Rows, RowResponse.appendJSON)
}

// appendBatch appends a batch body, {"count":n,<key>[item,…]}, with a nil
// list rendered null as encoding/json renders it.
func appendBatch[T any](b []byte, count int, key string, items []T, appendItem func(T, []byte) ([]byte, error)) (_ []byte, err error) {
	b = strconv.AppendInt(append(b, `{"count":`...), int64(count), 10)
	b = append(b, key...)
	if items == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for k, item := range items {
		if k > 0 {
			b = append(b, ',')
		}
		if b, err = appendItem(item, b); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

// appendValue appends a nullable wire value.
func appendValue(b []byte, v *float64) ([]byte, error) {
	switch {
	case v == nil:
		return append(b, "null"...), nil
	case math.IsNaN(*v) || math.IsInf(*v, 0):
		return b, errNonFinite
	}
	return appendFloat(b, *v), nil
}

// appendFloat appends a finite v as encoding/json does (ES6 number
// formatting): the shortest 'f' form for magnitudes in [1e-6, 1e21), the
// shortest 'e' form otherwise, with a two-digit negative exponent trimmed
// (e-07 → e-7).
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string the way encoding/json does with
// its default HTML escaping: quote, backslash and control bytes escaped
// (\b \f \n \r \t by name), <, > and & as \u00XX, invalid UTF-8 as \ufffd,
// and U+2028/U+2029 escaped for JSONP.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
