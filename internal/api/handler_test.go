package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"seqstore/internal/seqerr"
	"seqstore/internal/telemetry"
	"seqstore/internal/telemetry/promcheck"
	"seqstore/internal/trace"
)

// fakeBackend is the substitution the Backend interface exists to allow:
// it records the typed requests the HTTP layer hands it and answers from
// canned values, so the layer's parsing, limits, envelopes and rendering
// are tested with no store and no network behind them.
type fakeBackend struct {
	rows, cols int
	err        error // returned by every data method when set
	queryErr   error // every aggregate query's own error when set

	cells   []CellRequest
	idx     []int
	batch   BatchQuery
	bulk    string
	metrics MetricsRequest

	cellValue    float64
	metricsReply MetricsResponse
}

func (f *fakeBackend) Dims(context.Context) (int, int, error) { return f.rows, f.cols, f.err }

func (f *fakeBackend) Info(context.Context) (InfoResponse, error) {
	return InfoResponse{Method: "fake", Rows: f.rows, Cols: f.cols}, f.err
}

func (f *fakeBackend) Cells(_ context.Context, reqs []CellRequest) ([]CellResponse, error) {
	f.cells = reqs
	out := make([]CellResponse, len(reqs))
	for k, c := range reqs {
		out[k] = CellResponse{I: c.I, J: c.J, Value: &f.cellValue}
	}
	return out, f.err
}

func (f *fakeBackend) Rows(_ context.Context, idx []int) ([]RowResponse, error) {
	f.idx = idx
	out := make([]RowResponse, len(idx))
	for k, i := range idx {
		out[k].I = i
	}
	return out, f.err
}

func (f *fakeBackend) AggregateBatch(ctx context.Context, b BatchQuery) ([]AggregateResult, error) {
	f.batch = b
	trace.LedgerFrom(ctx).AddDiskAccesses(7)
	out := make([]AggregateResult, len(b.Queries))
	for k, q := range b.Queries {
		out[k] = AggregateResult{Response: q.Response(), Err: f.queryErr}
	}
	return out, f.err
}

func (f *fakeBackend) Bulk(_ context.Context, body io.Reader) (BulkResponse, error) {
	raw, _ := io.ReadAll(body)
	f.bulk = string(raw)
	return BulkResponse{Items: []BulkItem{
		{Create: BulkResult{Status: http.StatusCreated, Row: 3}},
		{Create: BulkResult{Status: http.StatusBadRequest, Error: "bad"}},
	}}, f.err
}

func (f *fakeBackend) Health(context.Context) HealthzResponse {
	return HealthzResponse{Status: "fine"}
}

func (f *fakeBackend) Metrics(_ context.Context, req MetricsRequest) (MetricsResponse, error) {
	f.metrics = req
	return f.metricsReply, f.err
}

func serve(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, out interface{}) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatalf("undecodable body %q: %v", w.Body.String(), err)
	}
}

// TestHandlerParsesIntoTypedRequests: what reaches the backend is parsed,
// bounded and validated; what it returns is rendered into the wire
// envelopes.
func TestHandlerParsesIntoTypedRequests(t *testing.T) {
	fb := &fakeBackend{rows: 10, cols: 4, cellValue: 2.5}
	h := NewHandler(fb, telemetry.NewRegistry(), Config{})

	// A lone cell or row reaches the backend as a batch of one.
	if w := serve(t, h, "GET", "/v1/cell?i=3&j=2", ""); w.Code != 200 || !reflect.DeepEqual(fb.cells, []CellRequest{{I: 3, J: 2}}) {
		t.Fatalf("index cell: %d, backend saw %+v", w.Code, fb.cells)
	}
	if serve(t, h, "GET", "/v1/cell?row=a+b&col=c", ""); !reflect.DeepEqual(fb.cells, []CellRequest{{Row: "a b", Col: "c"}}) {
		t.Fatalf("label cell: backend saw %+v", fb.cells)
	}
	var row RowResponse
	decode(t, serve(t, h, "GET", "/v1/row?i=6", ""), &row)
	if !reflect.DeepEqual(fb.idx, []int{6}) || row.I != 6 {
		t.Fatalf("row: backend saw %v, answered %+v", fb.idx, row)
	}
	w := serve(t, h, "GET", "/v1/cells?at=1:2,%203:0&at=9:9", "")
	var cells CellsResponse
	decode(t, w, &cells)
	if want := []CellRequest{{I: 1, J: 2}, {I: 3, J: 0}, {I: 9, J: 9}}; !reflect.DeepEqual(fb.cells, want) || cells.Count != 3 {
		t.Fatalf("cells: backend saw %v, count %d", fb.cells, cells.Count)
	}
	// /v1/rows resolves its spec against Backend.Dims: a row past them is
	// refused before the backend sees the request.
	if serve(t, h, "GET", "/v1/rows?i=7,0:3", ""); !reflect.DeepEqual(fb.idx, []int{7, 0, 1, 2}) {
		t.Fatalf("rows: backend saw %v", fb.idx)
	}
	if w := serve(t, h, "GET", "/v1/rows?i=0:11", ""); w.Code != 400 || !strings.Contains(w.Body.String(), CodeOutOfRange) ||
		!reflect.DeepEqual(fb.idx, []int{7, 0, 1, 2}) {
		t.Fatalf("rows past the dimensions: %d %s, backend saw %v", w.Code, w.Body, fb.idx)
	}

	// Aggregates: a batch of one, f defaults to avg, empty specs select the
	// full axes of Backend.Dims, the flags ride along, and the ledger the
	// backend charged comes back in the cost headers.
	w = serve(t, h, "POST", "/v1/aggregate", `{"rows":"2:5","explain":true,"partial":true}`)
	if len(fb.batch.Queries) != 1 {
		t.Fatalf("aggregate: backend saw %+v", fb.batch)
	}
	if q := fb.batch.Queries[0]; w.Code != 200 || q.F != "avg" || q.Rows.Len() != 3 || q.Cols.Len() != 4 ||
		!q.Explain || !q.Partial || !fb.batch.Partial {
		t.Fatalf("aggregate: %d, backend saw %+v", w.Code, fb.batch)
	}
	if got := w.Header().Get(trace.HeaderDiskAccesses); got != "7" {
		t.Fatalf("%s = %q, want the backend's 7", trace.HeaderDiskAccesses, got)
	}
	// A selection outside Dims never reaches the backend.
	fb.batch = BatchQuery{}
	w = serve(t, h, "POST", "/v1/aggregate", `{"rows":"0:11"}`)
	var env ErrorEnvelope
	decode(t, w, &env)
	if w.Code != 400 || env.Error.Code != CodeOutOfRange || len(fb.batch.Queries) != 0 {
		t.Fatalf("out-of-range selection: %d %q, backend saw %+v", w.Code, env.Error.Code, fb.batch)
	}

	// Batch: items that fail to parse or validate become their own non-200
	// items and only the valid ones reach the backend, with the batch-wide
	// flags folded in; the envelope is the layer's.
	w = serve(t, h, "POST", "/v1/aggregate/batch",
		`{"explain":true,"queries":[{"f":"sum"},{"f":"median"},{"f":"min","rows":"4:4"},{"f":"max","cols":"1"}]}`)
	var batch BatchAggregateResponse
	decode(t, w, &batch)
	if len(fb.batch.Queries) != 2 || fb.batch.Queries[0].F != "sum" || fb.batch.Queries[1].F != "max" ||
		!fb.batch.Queries[1].Explain {
		t.Fatalf("batch: backend saw %+v", fb.batch.Queries)
	}
	status := []int{batch.Items[0].Status, batch.Items[1].Status, batch.Items[2].Status, batch.Items[3].Status}
	if !reflect.DeepEqual(status, []int{200, 400, 400, 200}) || !batch.Errors || batch.Items[3].F != "max" {
		t.Fatalf("batch envelope: statuses %v errors %v items %+v", status, batch.Errors, batch.Items)
	}

	// Bulk: the body is the backend's to read; took and errors are the
	// layer's to fill in.
	w = serve(t, h, "POST", "/v1/bulk", "{\"values\":[1]}\n")
	var bulk BulkResponse
	decode(t, w, &bulk)
	if fb.bulk != "{\"values\":[1]}\n" || !bulk.Errors || len(bulk.Items) != 2 {
		t.Fatalf("bulk: backend read %q, response %+v", fb.bulk, bulk)
	}
}

// TestHandlerRendersBackendErrors: an *Error names its own status, code and
// shard detail; any other error goes through the taxonomy.
func TestHandlerRendersBackendErrors(t *testing.T) {
	fb := &fakeBackend{rows: 4, cols: 4}
	h := NewHandler(fb, telemetry.NewRegistry(), Config{})

	fb.err = &Error{Status: 503, Code: CodeUnavailable, Message: "1 of 2 shards unavailable",
		Shards: []ShardError{{Shard: 1, Addr: "http://b", Message: "connection refused"}}}
	w := serve(t, h, "GET", "/v1/row?i=1", "")
	var env ErrorEnvelope
	decode(t, w, &env)
	if w.Code != 503 || env.Error.Code != CodeUnavailable || len(env.Error.Shards) != 1 ||
		env.Error.Shards[0].Shard != 1 || env.Error.RequestID != w.Header().Get(trace.HeaderRequestID) {
		t.Fatalf("shard failure: %d %+v", w.Code, env.Error)
	}

	fb.err = seqerr.Corrupt("/data/p.sqz", 3, 12345, "page checksum mismatch")
	w = serve(t, h, "GET", "/v1/cell?i=0&j=0", "")
	decode(t, w, &env)
	if w.Code != 503 || env.Error.Code != CodeCorrupt {
		t.Fatalf("corrupt store: %d %q", w.Code, env.Error.Code)
	}
	fb.err = errors.New("disk on fire")
	w = serve(t, h, "GET", "/v1/info", "")
	decode(t, w, &env)
	if w.Code != 500 || env.Error.Code != CodeInternal || env.Error.Message != "disk on fire" {
		t.Fatalf("unclassified error: %d %+v", w.Code, env.Error)
	}

	// A query's own error fails a lone aggregate with its envelope, and a
	// batch item alone with the envelope's status, code and message.
	fb.err, fb.queryErr = nil, seqerr.Corrupt("/data/p.sqz", 3, 12345, "page checksum mismatch")
	w = serve(t, h, "POST", "/v1/aggregate", `{"f":"sum"}`)
	decode(t, w, &env)
	if w.Code != 503 || env.Error.Code != CodeCorrupt || env.Error.Message != fb.queryErr.Error() {
		t.Fatalf("failed lone aggregate: %d %+v", w.Code, env.Error)
	}
	var batch BatchAggregateResponse
	w = serve(t, h, "POST", "/v1/aggregate/batch", `{"queries":[{"f":"sum"}]}`)
	decode(t, w, &batch)
	if w.Code != 200 || !batch.Errors || !reflect.DeepEqual(batch.Items[0], BatchAggregateItem{Status: 503, Code: CodeCorrupt, Error: fb.queryErr.Error()}) {
		t.Fatalf("failed batch item: %d %+v", w.Code, batch)
	}
}

// TestHandlerEncodeFailureIsClean500: a response the JSON encoder rejects
// becomes a well-formed 500 envelope — never a truncated 200 — and is
// metered and traced as the failure it is.
func TestHandlerEncodeFailureIsClean500(t *testing.T) {
	fb := &fakeBackend{rows: 4, cols: 4, cellValue: math.NaN()} // a bare NaN is not JSON
	tel := telemetry.NewRegistry()
	h := NewHandler(fb, tel, Config{})

	w := serve(t, h, "GET", "/v1/cell?i=0&j=0", "")
	var env ErrorEnvelope
	decode(t, w, &env)
	if w.Code != 500 || env.Error.Code != CodeInternal {
		t.Fatalf("encode failure: %d %s", w.Code, w.Body.String())
	}
	if w.Header().Get(trace.HeaderRequestID) == "" || w.Header().Get(trace.HeaderDiskAccesses) == "" {
		t.Fatalf("encode failure lost the request-id/cost headers: %v", w.Header())
	}
	if ep := tel.Snapshot().Endpoints["/v1/cell"]; ep.Requests != 1 || ep.Errors != 1 {
		t.Fatalf("encode failure metered as %+v", ep)
	}
	var traces struct {
		Traces []trace.TraceSnapshot `json:"traces"`
	}
	decode(t, serve(t, h, "GET", TracesPattern, ""), &traces)
	if len(traces.Traces) != 1 || traces.Traces[0].Status != 500 {
		t.Fatalf("encode failure traced as %+v", traces.Traces)
	}
}

// TestHandlerMetricsAndHealthFraming: the layer frames both metrics views
// around the backend's part — or steps aside when the part is the whole
// view — and adds the SLO block to the backend's health.
func TestHandlerMetricsAndHealthFraming(t *testing.T) {
	fb := &fakeBackend{metricsReply: MetricsResponse{
		Sections: map[string]interface{}{"mine": 1},
		Prom:     []byte("# TYPE mine gauge\nmine 1\n"),
	}}
	h := NewHandler(fb, telemetry.NewRegistry(), Config{SLOObjective: time.Second})

	var body map[string]interface{}
	decode(t, serve(t, h, "GET", "/v1/metrics", ""), &body)
	for _, key := range []string{"mine", "uptime_seconds", "endpoints", "runtime", "traces", "slo"} {
		if _, ok := body[key]; !ok {
			t.Errorf("metrics JSON lacks %q: %v", key, body)
		}
	}
	w := serve(t, h, "GET", "/v1/metrics?format=prom&scope=cluster", "")
	if fb.metrics != (MetricsRequest{Scope: "cluster", Prom: true}) {
		t.Fatalf("backend saw %+v", fb.metrics)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prom Content-Type = %q", ct)
	}
	pm, err := promcheck.ParsePrometheus(w.Body)
	if err != nil {
		t.Fatalf("framed exposition does not parse: %v", err)
	}
	if len(pm.Get("mine")) != 1 || len(pm.Get("seqstore_uptime_seconds")) != 1 {
		t.Errorf("exposition lacks the backend's or the registry's families: %v", pm.Families())
	}

	fb.metricsReply.Whole = true
	body = nil
	decode(t, serve(t, h, "GET", "/v1/metrics", ""), &body)
	if len(body) != 1 || body["mine"] == nil {
		t.Errorf("whole JSON view was framed: %v", body)
	}
	if w := serve(t, h, "GET", "/v1/metrics?format=prom", ""); w.Body.String() != "# TYPE mine gauge\nmine 1\n" {
		t.Errorf("whole prom view was framed: %q", w.Body.String())
	}

	var hz HealthzResponse
	decode(t, serve(t, h, "GET", "/v1/healthz", ""), &hz)
	if hz.Status != "fine" || hz.SLO == nil || hz.SLO.ObjectiveMs != 1000 {
		t.Errorf("healthz = %+v", hz)
	}
}
