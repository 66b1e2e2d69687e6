package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/seqerr"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// frameOf renders body's frame, failing the test for a body that has none.
func frameOf(t testing.TB, body interface{}) []byte {
	t.Helper()
	b, ok, err := appendFrame(nil, body)
	if !ok || err != nil {
		t.Fatalf("no frame for %T: %v", body, err)
	}
	return b
}

// renderJSON is the bytes a front door writes for body.
func renderJSON(t testing.TB, body interface{}) []byte {
	t.Helper()
	b, err := appendBody(nil, body)
	if err != nil {
		t.Fatalf("%T does not render: %v", body, err)
	}
	return b
}

// frameCells is a cells body with every edge value and hostile label.
func frameCells() CellsResponse {
	var c CellsResponse
	for k, v := range edgeValues {
		l := edgeLabels[k%len(edgeLabels)]
		c.Cells = append(c.Cells, cellOf(k, 2*k, v, l, "col "+l))
	}
	c.Count = len(c.Cells)
	return c
}

// frameRows is a rows body as a store node serves it: pooled buffers, one
// row of every edge value, a short finite row and an empty one.
func frameRows(t testing.TB) RowsResponse {
	r := RowsResponse{Rows: []RowResponse{
		storeRow(t, 0, edgeValues), storeRow(t, 7, []float64{1, -2.5, 3e-9}), storeRow(t, 9, nil),
	}}
	r.Count = len(r.Rows)
	return r
}

// frameBatch is a batch body as a store node serves it to a proxy: an OK
// partial of each aggregate from a compressed store (the factored ones
// included), a failed item with a code, an item with explain, and a
// finished value of each non-finite class.
func frameBatch(t testing.TB) BatchAggregateResponse {
	cfg := dataset.DefaultPhoneConfig(40)
	cfg.M = 24
	st, err := core.Compress(matio.NewMem(dataset.GeneratePhone(cfg)), core.Options{Budget: 0.5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sel := query.Selection{Rows: []int{1, 2, 3, 5, 8, 13, 21, 34}, Cols: []int{0, 4, 9, 16}}
	b := BatchAggregateResponse{Took: 3, Errors: true}
	for _, agg := range []query.Aggregate{query.Sum, query.Avg, query.Min, query.Max, query.StdDev} {
		p, err := query.EvaluatePartial(st, agg, sel, query.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b.Items = append(b.Items, BatchAggregateItem{Status: 200, F: agg.String(), Rows: 8, Cols: 4, Partial: raw})
	}
	b.Items = append(b.Items,
		BatchAggregateItem{Status: 503, Code: CodeCorrupt, Error: `corrupt "/data/p.sqz": page 3`},
		BatchAggregateItem{Status: 200, F: "sum", Rows: 2, Cols: 2, Partial: []byte("SQP1…"), Explain: &Explain{
			Plan: "factored", Workers: 2, Cells: 4, Runs: 1, ScanRows: 2,
			EstRowsRead: 2, EstDiskAccesses: 2, Cost: trace.LedgerSnapshot{DiskAccesses: 2, RowsRead: 2},
		}})
	for _, v := range []float64{1.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		it := BatchAggregateItem{Status: 200, F: "avg", Rows: 1, Cols: 1}
		it.Value, it.Nonfinite = Float(v)
		b.Items = append(b.Items, it)
	}
	return b
}

// TestFrameMatchesJSON: a decoded frame renders the JSON bytes the node
// renders for the same body — every edge float, NaN/±Inf, hostile labels,
// factored and plain partials, a failed item and an explain block.
func TestFrameMatchesJSON(t *testing.T) {
	cells := frameCells()
	var gotCells CellsResponse
	if err := DecodeFrame(frameOf(t, cells), &gotCells); err != nil {
		t.Fatal(err)
	}
	if got, want := renderJSON(t, gotCells), renderJSON(t, cells); !bytes.Equal(got, want) {
		t.Errorf("cells:\n got %s\nwant %s", got, want)
	}

	want := renderJSON(t, frameRows(t))
	var gotRows RowsResponse
	if err := DecodeFrame(frameOf(t, frameRows(t)), &gotRows); err != nil {
		t.Fatal(err)
	}
	if got := renderJSON(t, gotRows); !bytes.Equal(got, want) {
		t.Errorf("rows:\n got %s\nwant %s", got, want)
	}

	batch := frameBatch(t)
	var gotBatch BatchAggregateResponse
	if err := DecodeFrame(frameOf(t, batch), &gotBatch); err != nil {
		t.Fatal(err)
	}
	if got, want := renderJSON(t, gotBatch), renderJSON(t, batch); !bytes.Equal(got, want) {
		t.Errorf("batch:\n got %s\nwant %s", got, want)
	}
	for k, it := range gotBatch.Items[:5] {
		var p query.Partial
		if err := p.UnmarshalBinary(it.Partial); err != nil || p.Agg.String() != it.F {
			t.Errorf("item %d: partial %v (%v)", k, p.Agg, err)
		}
	}
}

// goldenBodies are one small body of each shape holding no computed float:
// cells with labels and non-finite values, rows with a non-finite cell and
// an empty row, a batch with a partial, a failed item and an explain block.
func goldenBodies(t testing.TB) []interface{} {
	cells := CellsResponse{Count: 3, Cells: []CellResponse{
		cellOf(0, 1, 2.5, "", ""), cellOf(4, 5, math.Inf(-1), "r4", "c5"), cellOf(6, 7, math.NaN(), "", "naïve"),
	}}
	rows := RowsResponse{Count: 2, Rows: []RowResponse{storeRow(t, 3, []float64{1, math.Inf(1), -0.5}), storeRow(t, 8, nil)}}
	partial, err := (&query.Partial{Agg: query.Min, NumCells: 4, N: 4, Min: -2.5, Max: math.Inf(-1)}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	batch := BatchAggregateResponse{Took: 12, Errors: true, Items: []BatchAggregateItem{
		{Status: 200, F: "min", Rows: 2, Cols: 2, Partial: partial},
		{Status: 400, Code: CodeOutOfRange, Error: "row 9 out of range"},
		{Status: 200, F: "count", Rows: 1, Cols: 3, Value: new(float64), Explain: &Explain{Plan: "count", Cells: 3}},
	}}
	return []interface{}{cells, rows, batch}
}

// TestFrameGolden pins each shape's frame bytes, so the format cannot
// drift without this test saying so.
func TestFrameGolden(t *testing.T) {
	want := []string{
		"5e282b147b16e677b6554f91fcdc030822910e9b0ae1565ec783272adfe585e5",
		"dd07413359204abb38d60adabbacbc5260d7d2d428174421bc18c4a01742788f",
		"88668aac9075280007162b570a546325745f6e38ec4bbb279e6430072f8b07d3",
	}
	for k, body := range goldenBodies(t) {
		sum := sha256.Sum256(frameOf(t, body))
		if got := hex.EncodeToString(sum[:]); got != want[k] {
			t.Errorf("%T frame SHA-256 = %s, pinned %s", body, got, want[k])
		}
	}
}

// TestFrameNegotiation: the handler writes a frame only for a request
// whose Accept names FrameType and a body that has one; a lone cell, every
// other endpoint and every error envelope stay JSON.
func TestFrameNegotiation(t *testing.T) {
	ok := NewHandler(&fakeBackend{rows: 10, cols: 4, cellValue: 2.5}, telemetry.NewRegistry(), Config{})
	failing := NewHandler(&fakeBackend{rows: 10, cols: 4, err: seqerr.ErrUnavailable}, telemetry.NewRegistry(), Config{})
	for _, c := range []struct {
		h                          *Handler
		method, path, body, accept string
		frame                      bool
	}{
		{ok, "GET", "/v1/cells?at=1:2,3:0", "", FrameType, true},
		{ok, "GET", "/v1/cells?at=1:2", "", "text/html, " + FrameType + ";q=0.9, application/json", true},
		{ok, "GET", "/v1/rows?i=0:2", "", "APPLICATION/X-SEQSTORE-FRAME", true},
		{ok, "POST", "/v1/aggregate/batch", `{"queries":[{"f":"sum"}],"partial":true}`, FrameType, true},
		{ok, "GET", "/v1/cells?at=1:2", "", "", false},
		{ok, "GET", "/v1/cells?at=1:2", "", "application/json", false},
		{ok, "GET", "/v1/cells?at=1:2", "", "application/x-seqstore-frames", false},
		{ok, "GET", "/v1/cell?i=1&j=2", "", FrameType, false},
		{ok, "GET", "/v1/row?i=1", "", FrameType, false},
		{ok, "POST", "/v1/aggregate", `{"f":"sum"}`, FrameType, false},
		{ok, "GET", "/v1/info", "", FrameType, false},
		{failing, "GET", "/v1/cells?at=1:1", "", FrameType, false},
		{failing, "POST", "/v1/aggregate/batch", `{"queries":[{"f":"sum"}]}`, FrameType, false},
		{ok, "GET", "/v1/cells", "", FrameType, false},
	} {
		req := httptest.NewRequest(c.method, c.path, bytes.NewReader([]byte(c.body)))
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		w := httptest.NewRecorder()
		c.h.ServeHTTP(w, req)
		ct := w.Header().Get("Content-Type")
		if IsFrame(ct) != c.frame || (!c.frame && ct != "application/json") {
			t.Errorf("%s %s (Accept %q): %d Content-Type %q, want a frame: %v", c.method, c.path, c.accept, w.Code, ct, c.frame)
		}
		if c.frame && w.Code != http.StatusOK {
			t.Errorf("%s %s: framed status %d", c.method, c.path, w.Code)
		}
		if !c.frame && !json.Valid(w.Body.Bytes()) {
			t.Errorf("%s %s: JSON answer %q", c.method, c.path, w.Body.Bytes())
		}
	}
}

// frameSeeds are small valid frames of every shape plus hostile ones:
// counts and lengths far past the bytes present, wrong magics, a trailing
// byte.
func frameSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{frameOf(t, CellsResponse{}), frameOf(t, RowsResponse{}), frameOf(t, BatchAggregateResponse{})}
	for _, body := range goldenBodies(t) {
		seeds = append(seeds, frameOf(t, body))
	}
	huge := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	for _, magic := range []string{cellsMagic, rowsMagic, batchMagic} {
		hdr := append([]byte(magic), make([]byte, 8)...)
		if magic == batchMagic {
			hdr = append(hdr, 0)
		}
		seeds = append(seeds, append(hdr[:len(hdr):len(hdr)], huge...))
	}
	// One row claiming 2³² − 1 values, and one item whose partial does.
	row := binary.LittleEndian.AppendUint32(append([]byte(rowsMagic), make([]byte, 8)...), 1)
	seeds = append(seeds, append(append(row, make([]byte, 8)...), huge...))
	item := binary.LittleEndian.AppendUint32(append(append([]byte(batchMagic), make([]byte, 8)...), 0), 1)
	item = append(item, make([]byte, 3*8+1+8+3*4)...)
	seeds = append(seeds, append(item, huge...))
	seeds = append(seeds, []byte("SQX1"), nil, append(seeds[3], 0))
	return seeds
}

// decodeTargets are the three bodies a frame can decode into.
var decodeTargets = []func() interface{}{
	func() interface{} { return new(CellsResponse) },
	func() interface{} { return new(RowsResponse) },
	func() interface{} { return new(BatchAggregateResponse) },
}

// checkDecode holds DecodeFrame to its contract on one input: no panic,
// allocation bounded by the input's size, every strict prefix of a frame
// that decodes refused, and a decoded body that re-encodes to a frame
// decoding to the same JSON.
func checkDecode(t *testing.T, data []byte) {
	for _, target := range decodeTargets {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := target()
		err := DecodeFrame(data, out)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+1<<16) {
			t.Fatalf("%T: decoding %d bytes allocated %d", out, len(data), grew)
		}
		if err != nil {
			continue
		}
		for k := 0; k < len(data); k++ {
			if DecodeFrame(data[:k], target()) == nil {
				t.Fatalf("%T: the %d-byte prefix of a %d-byte frame decodes", out, k, len(data))
			}
		}
		first, firstErr := appendBody(nil, elem(out))
		again := target()
		if err := DecodeFrame(data, again); err != nil {
			t.Fatalf("%T: a frame decodes once, not twice: %v", out, err)
		}
		reframed, _, err := appendFrame(nil, elem(again))
		if err != nil {
			t.Fatalf("%T: a decoded body does not re-encode: %v", out, err)
		}
		third := target()
		if err := DecodeFrame(reframed, third); err != nil {
			t.Fatalf("%T: a re-encoded frame does not decode: %v", out, err)
		}
		second, secondErr := appendBody(nil, elem(third))
		if (firstErr != nil) != (secondErr != nil) || !bytes.Equal(first, second) {
			t.Fatalf("%T: decoded JSON %s (%v), after a re-encode %s (%v)", out, first, firstErr, second, secondErr)
		}
	}
}

// elem is the body a decode target points to, as appendBody and
// appendFrame take it.
func elem(out interface{}) interface{} { return reflect.ValueOf(out).Elem().Interface() }

func TestDecodeFrameHostile(t *testing.T) {
	for _, seed := range frameSeeds(t) {
		checkDecode(t, seed)
	}
	for _, big := range [][]byte{frameOf(t, frameCells()), frameOf(t, frameRows(t)), frameOf(t, frameBatch(t))} {
		checkDecode(t, big)
	}
	// A frame decodes only into its own shape.
	cells := frameOf(t, frameCells())
	if DecodeFrame(cells, new(RowsResponse)) == nil || DecodeFrame(cells, new(BatchAggregateResponse)) == nil ||
		DecodeFrame(cells, new(CellResponse)) == nil {
		t.Error("a cells frame decodes as another body")
	}
}

func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(checkDecode)
}
