package api

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// stdJSON is the oracle every point-read encoder is held to: the bytes
// encoding/json writes for the same value, or its refusal.
func stdJSON(v interface{}) ([]byte, error) { return json.Marshal(v) }

// wireRow is a row in its pointer form — what a proxy decodes from a
// shard, and the form encoding/json can render.
func wireRow(i int, row []float64) RowResponse {
	r := RowResponse{I: i, Values: make([]*float64, len(row))}
	for j, v := range row {
		var marker string
		if r.Values[j], marker = Float(v); marker != "" {
			r.Nonfinite++
		}
	}
	return r
}

// storeRow is the same row as a store node serves it: reconstructed into a
// pooled buffer and rendered from the floats.
func storeRow(t testing.TB, i int, row []float64) RowResponse {
	r, err := ReadRow(i, func(dst []float64) ([]float64, error) { return append(dst, row...), nil })
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func cellOf(i, j int, v float64, rowLabel, colLabel string) CellResponse {
	c := CellResponse{I: i, J: j, Row: rowLabel, Col: colLabel}
	c.Value, c.Nonfinite = Float(v)
	return c
}

// requireSameJSON asserts that body renders to oracle's encoding/json bytes,
// and fails exactly where encoding/json fails.
func requireSameJSON(t *testing.T, name string, body, oracle interface{}) {
	t.Helper()
	want, wantErr := stdJSON(oracle)
	got, err := appendBody(nil, body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, encoding/json says %v", name, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
	}
}

var edgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 1e-7, -1e-7, 9.99e-7, 1e-6, 1e20, 1e21, -1e21, 123456789.125,
	5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
	1.4350758586654577, 1 / 3.0, math.NaN(), math.Inf(1), math.Inf(-1),
}

var edgeLabels = []string{
	"", "GHI Inc.", `say "hi"`, `back\slash`, "<script>&amp;</script>", "line\u2028para\u2029",
	"bad \xff utf8 \xc3", "ctl \x00\x01\b\f\n\r\t\x1f\x7f", "naïve 日本 🎉",
}

// TestPointReadBodiesMatchEncodingJSON pins the wire bytes of /v1/cell,
// /v1/cells, /v1/row and /v1/rows to encoding/json's for every edge value,
// both row forms, empty and absent collections and hostile labels.
func TestPointReadBodiesMatchEncodingJSON(t *testing.T) {
	var cells []CellResponse
	for k, v := range edgeValues {
		c := cellOf(k, -k, v, "", "")
		requireSameJSON(t, "cell", &c, c)
		cells = append(cells, c)
	}
	for _, l := range edgeLabels {
		c := cellOf(1, 2, 0.5, l, "col "+l)
		requireSameJSON(t, "labelled cell", &c, c)
		cells = append(cells, c)
	}
	for _, cs := range [][]CellResponse{nil, {}, cells} {
		body := CellsResponse{Count: len(cs), Cells: cs}
		requireSameJSON(t, "cells", body, body)
	}

	// A number encoding/json cannot write fails here too: the response
	// becomes a clean 500, never invalid JSON.
	nan := math.NaN()
	bad := CellResponse{Value: &nan}
	requireSameJSON(t, "non-finite value", &bad, bad)
	requireSameJSON(t, "non-finite in a batch", CellsResponse{Count: 2, Cells: []CellResponse{cells[0], bad}},
		CellsResponse{Count: 2, Cells: []CellResponse{cells[0], bad}})
	requireSameJSON(t, "non-finite in a row", &RowResponse{Values: []*float64{&nan}}, RowResponse{Values: []*float64{&nan}})

	var stored, wire []RowResponse
	for i, row := range [][]float64{nil, {}, edgeValues, {42}} {
		stored1, wire1 := storeRow(t, i, row), wireRow(i, row)
		requireSameJSON(t, "stored row", &stored1, wire1)
		requireSameJSON(t, "decoded row", &wire1, wire1)
		stored, wire = append(stored, storeRow(t, i, row)), append(wire, wireRow(i, row))
	}
	requireSameJSON(t, "row without values", &RowResponse{I: 3}, RowResponse{I: 3})
	for _, rs := range [][2][]RowResponse{{nil, nil}, {{}, {}}, {stored, wire}, {wire, wire}} {
		requireSameJSON(t, "rows", RowsResponse{Count: len(rs[0]), Rows: rs[0]}, RowsResponse{Count: len(rs[1]), Rows: rs[1]})
	}
}

// FuzzPointReadEncoding holds the encoders to the same oracle on arbitrary
// coordinates, values and labels.
func FuzzPointReadEncoding(f *testing.F) {
	for k, v := range edgeValues {
		l := edgeLabels[k%len(edgeLabels)]
		f.Add(k, -k, v, edgeValues[len(edgeValues)-1-k], l, l+"x")
	}
	f.Fuzz(func(t *testing.T, i, j int, v, w float64, rowLabel, colLabel string) {
		c := cellOf(i, j, v, rowLabel, colLabel)
		requireSameJSON(t, "cell", &c, c)
		cs := []CellResponse{c, cellOf(j, i, w, colLabel, "")}
		requireSameJSON(t, "cells", CellsResponse{Count: i, Cells: cs}, CellsResponse{Count: i, Cells: cs})
		row := []float64{v, w, v * w, v + w}
		stored := storeRow(t, i, row)
		requireSameJSON(t, "row", &stored, wireRow(i, row))
		requireSameJSON(t, "rows",
			RowsResponse{Count: j, Rows: []RowResponse{storeRow(t, i, row), wireRow(j, row[:2])}},
			RowsResponse{Count: j, Rows: []RowResponse{wireRow(i, row), wireRow(j, row[:2])}})
	})
}
