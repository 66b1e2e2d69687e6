package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
)

// fakeStore is a fault- and value-injectable store.Store for tests.
type fakeStore struct {
	rows, cols int
	at         func(i, j int) float64
}

func (f *fakeStore) Dims() (int, int) { return f.rows, f.cols }

func (f *fakeStore) Cell(i, j int) (float64, error) {
	if i < 0 || i >= f.rows {
		return 0, fmt.Errorf("fake: row %d out of range %d (%w)", i, f.rows, seqerr.ErrOutOfRange)
	}
	if j < 0 || j >= f.cols {
		return 0, fmt.Errorf("fake: column %d out of range %d (%w)", j, f.cols, seqerr.ErrOutOfRange)
	}
	return f.at(i, j), nil
}

func (f *fakeStore) Row(i int, dst []float64) ([]float64, error) {
	if i < 0 || i >= f.rows {
		return nil, fmt.Errorf("fake: row %d out of range %d (%w)", i, f.rows, seqerr.ErrOutOfRange)
	}
	if cap(dst) < f.cols {
		dst = make([]float64, f.cols)
	}
	dst = dst[:f.cols]
	for j := range dst {
		dst[j] = f.at(i, j)
	}
	return dst, nil
}

func (f *fakeStore) StoredNumbers() int64 { return int64(f.rows * f.cols) }
func (f *fakeStore) Method() store.Method { return store.MethodDCT }

var _ store.Store = (*fakeStore)(nil)

// phoneStore compresses a small phone dataset with SVDD; the raw matrix is
// returned for exact comparisons. Stores are read-only and safe to share,
// so the compression runs once per size and is reused across tests.
var phoneStores sync.Map // n → func() (*core.Store, *linalg.Matrix, error)

func phoneStore(t *testing.T, n int) (*core.Store, *linalg.Matrix) {
	t.Helper()
	build, _ := phoneStores.LoadOrStore(n, sync.OnceValues(func() (interface{}, error) {
		x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(n))
		st, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.12})
		if err != nil {
			return nil, err
		}
		return [2]interface{}{st, x}, nil
	}))
	v, err := build.(func() (interface{}, error))()
	if err != nil {
		t.Fatal(err)
	}
	pair := v.([2]interface{})
	return pair[0].(*core.Store), pair[1].(*linalg.Matrix)
}

// errMessage digs the human-readable message out of the unified error
// envelope {"error": {"code", "message", "request_id"}}.
func errMessage(t *testing.T, body map[string]interface{}) string {
	t.Helper()
	env, ok := body["error"].(map[string]interface{})
	if !ok {
		t.Fatalf("body has no error envelope: %v", body)
	}
	msg, _ := env["message"].(string)
	if msg == "" {
		t.Fatalf("error envelope has no message: %v", env)
	}
	if code, _ := env["code"].(string); code == "" {
		t.Fatalf("error envelope has no code: %v", env)
	}
	return msg
}

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Handler, *linalg.Matrix) {
	t.Helper()
	st, x := phoneStore(t, 120)
	h := NewHandler(st, nil, opts)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h, x
}

// fetch GETs rawURL — except the shorthand "/v1/aggregate?f=sum&rows=0:8",
// whose query parameters it POSTs as the JSON body, so tests can keep
// aggregate requests in path tables next to the GET endpoints.
func fetch(rawURL string, hdr map[string]string) (*http.Response, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if u, err := url.Parse(rawURL); err == nil && u.Path == "/v1/aggregate" {
		q := u.Query()
		raw, _ := json.Marshal(api.AggregateRequest{F: q.Get("f"), Rows: q.Get("rows"), Cols: q.Get("cols")})
		u.RawQuery = ""
		method, body, rawURL = http.MethodPost, bytes.NewReader(raw), u.String()
	}
	req, err := http.NewRequest(method, rawURL, body)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return http.DefaultClient.Do(req)
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := fetch(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type = %q", url, ct)
	}
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s: decode: %v", url, err)
	}
	return body
}

func TestInfoEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/info", http.StatusOK)
	if body["method"] != "svdd" {
		t.Errorf("method = %v", body["method"])
	}
	if body["rows"].(float64) != 120 || body["cols"].(float64) != 366 {
		t.Errorf("dims = %v×%v", body["rows"], body["cols"])
	}
	if sr := body["spaceRatio"].(float64); sr <= 0 || sr > 0.12+1e-9 {
		t.Errorf("spaceRatio = %v", sr)
	}
}

func TestCellEndpoint(t *testing.T) {
	srv, _, x := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/cell?i=5&j=100", http.StatusOK)
	if body["i"].(float64) != 5 || body["j"].(float64) != 100 {
		t.Errorf("echoed coords wrong: %v", body)
	}
	v, ok := body["value"].(float64)
	if !ok {
		t.Fatal("no numeric value")
	}
	if math.Abs(v-x.At(5, 100)) > 0.5*math.Abs(x.At(5, 100))+50 {
		t.Errorf("cell value %v far from actual %v", v, x.At(5, 100))
	}
	// Errors.
	getJSON(t, srv.URL+"/v1/cell?i=5", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?i=abc&j=0", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?i=99999&j=0", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?i=0&j=-1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?row=Nobody&col=We", http.StatusBadRequest)
}

func TestRowEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/row?i=7", http.StatusOK)
	vals := body["values"].([]interface{})
	if len(vals) != 366 {
		t.Errorf("row length %d", len(vals))
	}
	getJSON(t, srv.URL+"/v1/row?i=-1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/row", http.StatusBadRequest)
}

func TestAggEndpoint(t *testing.T) {
	srv, _, x := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/aggregate?f=avg&rows=0:50&cols=0:30", http.StatusOK)
	got := body["value"].(float64)
	want, err := query.EvaluateMatrix(x, query.Avg,
		query.Selection{Rows: query.All(50), Cols: query.All(30)})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 0.10 {
		t.Errorf("agg value %.4f vs exact %.4f (%.1f%% off)", got, want, 100*rel)
	}
	if body["rows"].(float64) != 50 || body["cols"].(float64) != 30 {
		t.Errorf("selection sizes echoed wrong: %v", body)
	}
	// Default f and default selections (all rows/cols).
	all := getJSON(t, srv.URL+"/v1/aggregate", http.StatusOK)
	if all["f"] != "avg" {
		t.Errorf("default f = %v", all["f"])
	}
	if all["rows"].(float64) != 120 || all["cols"].(float64) != 366 {
		t.Errorf("default selection = %v×%v", all["rows"], all["cols"])
	}
	// Errors: unknown aggregate, inverted range, garbage, negatives.
	getJSON(t, srv.URL+"/v1/aggregate?f=median", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/aggregate?rows=9:1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/aggregate?cols=zzz", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/aggregate?rows=-3", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/aggregate?rows=0:10&cols=999:1000", http.StatusBadRequest)
}

func TestCountAggExact(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/aggregate?f=count&rows=0:10&cols=0:10", http.StatusOK)
	if body["value"].(float64) != 100 {
		t.Errorf("count = %v", body["value"])
	}
}

func TestCellByLabelEndpoint(t *testing.T) {
	x := dataset.Toy()
	st, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	labels := &store.Labels{Rows: dataset.ToyRowLabels, Cols: dataset.ToyColLabels}
	srv := httptest.NewServer(NewHandler(st, labels, Options{}))
	defer srv.Close()
	body := getJSON(t, srv.URL+"/v1/cell?row=KLM+Co.&col=We", http.StatusOK)
	if v := body["value"].(float64); math.Abs(v-x.At(3, 0)) > 1e-6 {
		t.Errorf("KLM/We = %v, want %v", v, x.At(3, 0))
	}
	getJSON(t, srv.URL+"/v1/cell?row=Nobody&col=We", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?row=KLM+Co.&col=Zz", http.StatusBadRequest)
}

func TestCellsBatchEndpoint(t *testing.T) {
	srv, _, x := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/cells?at=5:100,5:101&at=6:100", http.StatusOK)
	if body["count"].(float64) != 3 {
		t.Fatalf("count = %v", body["count"])
	}
	cells := body["cells"].([]interface{})
	first := cells[0].(map[string]interface{})
	if first["i"].(float64) != 5 || first["j"].(float64) != 100 {
		t.Errorf("first cell coords: %v", first)
	}
	if v := first["value"].(float64); math.Abs(v-x.At(5, 100)) > 0.5*math.Abs(x.At(5, 100))+50 {
		t.Errorf("first cell value %v vs actual %v", v, x.At(5, 100))
	}
	// Errors.
	getJSON(t, srv.URL+"/v1/cells", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cells?at=5", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cells?at=a:b", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cells?at=99999:0", http.StatusBadRequest)
}

func TestRowsBatchEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/rows?i=0:3,7", http.StatusOK)
	if body["count"].(float64) != 4 {
		t.Fatalf("count = %v", body["count"])
	}
	rows := body["rows"].([]interface{})
	last := rows[3].(map[string]interface{})
	if last["i"].(float64) != 7 {
		t.Errorf("last row index: %v", last["i"])
	}
	if len(last["values"].([]interface{})) != 366 {
		t.Errorf("row length %d", len(last["values"].([]interface{})))
	}
	// Errors: missing spec, empty spec, negative, out of range, over limit.
	getJSON(t, srv.URL+"/v1/rows", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/rows?i=4:4", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/rows?i=-1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/rows?i=99999", http.StatusBadRequest)
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	// Generate some traffic first: two cells of one row, an error, an
	// aggregate.
	getJSON(t, srv.URL+"/v1/cell?i=5&j=100", http.StatusOK)
	getJSON(t, srv.URL+"/v1/cell?i=5&j=101", http.StatusOK)
	getJSON(t, srv.URL+"/v1/cell?i=99999&j=0", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/aggregate?f=sum&rows=0:10&cols=0:10", http.StatusOK)

	body := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	eps := body["endpoints"].(map[string]interface{})
	cell := eps["/v1/cell"].(map[string]interface{})
	if cell["requests"].(float64) != 3 || cell["errors"].(float64) != 1 {
		t.Errorf("/cell endpoint metrics: %v", cell)
	}
	lat := cell["latency"].(map[string]interface{})
	if lat["count"].(float64) != 3 || lat["p50_ms"].(float64) < 0 {
		t.Errorf("/cell latency: %v", lat)
	}
	if _, ok := lat["buckets"]; !ok {
		t.Errorf("latency histogram has no buckets: %v", lat)
	}
	if _, ok := body["cache"]; ok {
		t.Errorf("metrics report a row cache: %v", body["cache"])
	}
	// Disk-access counters of the SVDD U backing are present: both cells
	// of the one row were U accesses, and the aggregate's ten rows too.
	io := body["io"].(map[string]interface{})
	if io["row_reads"].(float64) < 12 {
		t.Errorf("io counters: %v", io)
	}
	if _, ok := body["svdd"]; !ok {
		t.Errorf("svdd section missing: %v", body)
	}
}

// TestMetricsOneAccessPerCell verifies the paper's cost-model claim
// through the serving stack: with the cache disabled, N distinct /cell
// requests cost exactly N U-row reads.
func TestMetricsOneAccessPerCell(t *testing.T) {
	st, _ := phoneStore(t, 60)
	h := NewHandler(st, nil, Options{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	us := st.Base().UStats()
	us.Reset()
	const n = 17
	for i := 0; i < n; i++ {
		getJSON(t, fmt.Sprintf("%s/v1/cell?i=%d&j=%d", srv.URL, i, i*3), http.StatusOK)
	}
	if got := us.Snapshot().RowReads; got != n {
		t.Errorf("%d cell queries cost %d U-row reads, want exactly %d", n, got, n)
	}
}

func TestHealthz(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/healthz", http.StatusOK)
	if body["status"] != "ok" {
		t.Errorf("healthz: %v", body)
	}
}

// TestRepeatedRowsCostOneAccessEach: the same row requested three times is
// reconstructed three times — one U access each, charged on each response
// — and renders to the same bytes every time.
func TestRepeatedRowsCostOneAccessEach(t *testing.T) {
	st, _ := phoneStore(t, 60)
	srv := httptest.NewServer(NewHandler(st, nil, Options{}))
	defer srv.Close()
	us := st.Base().UStats()
	reads := us.RowReads()
	var first []byte
	for k := 0; k < 3; k++ {
		resp, body := get(t, srv.URL+"/v1/row?i=9", nil)
		if got := resp.Header.Get("X-Cost-Disk-Accesses"); got != "1" {
			t.Errorf("read %d: X-Cost-Disk-Accesses = %q, want 1", k, got)
		}
		if k == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("read %d of row 9 differs from the first", k)
		}
	}
	if got := us.RowReads() - reads; got != 3 {
		t.Errorf("3 reads of one row cost %d U-row reads, want 3", got)
	}
}

// discardWriter is the least a ResponseWriter can be, so an allocation
// count measures the handler rather than a recorder.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestCellAllocBudget pins what one point read allocates through the whole
// api.Handler stack, middleware and rendering included: the trace and its
// ids, the request copy carrying it, the status writer, the finished
// trace, the batch of one and its answer, and a cell's value. A reflective
// encoder, a per-request logger or a parsed url.Values would each blow it.
// The batch forms of one element cost no more than the lone ones: every
// proxied cell and row is such a batch on its shard. Under -race the row
// paths are left out: they read through a sync.Pool, whose Puts the race
// detector drops at random.
func TestCellAllocBudget(t *testing.T) {
	st, _ := phoneStore(t, 120)
	h := NewHandler(st, nil, Options{})
	for _, path := range []string{"/v1/cell?i=5&j=100", "/v1/cells?at=5:100", "/v1/row?i=5", "/v1/rows?i=5"} {
		if raceEnabled && strings.HasPrefix(path, "/v1/row") {
			continue
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := &discardWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
		if w.h.Get("X-Cost-Disk-Accesses") != "1" {
			t.Fatalf("%s not served: headers %v", path, w.h)
		}
		t.Logf("GET %s: %.0f allocations", path, allocs)
		const budget = 12
		if allocs > budget {
			t.Errorf("GET %s allocates %.1f times, budget %d", path, allocs, budget)
		}
	}
}

// corruptStore fails every read with a corruption error, as a store backed
// by a damaged file would.
type corruptStore struct{ fakeStore }

func (c *corruptStore) Cell(i, j int) (float64, error) {
	return 0, seqerr.Corrupt("/data/p.sqz", 3, 12345, "page checksum mismatch")
}

func (c *corruptStore) Row(i int, dst []float64) ([]float64, error) {
	return nil, seqerr.Corrupt("/data/p.sqz", 3, 12345, "page checksum mismatch")
}

// TestCorruptStoreReturns503 pins the corruption contract at the serving
// layer: a store that detects damage yields 503 (not 500, not wrong data),
// the store_corruptions counter on /metrics increments per surfaced error,
// and endpoints that do not touch the damaged pages keep serving.
func TestCorruptStoreReturns503(t *testing.T) {
	cs := &corruptStore{fakeStore{rows: 4, cols: 4, at: func(i, j int) float64 { return 0 }}}
	srv := httptest.NewServer(NewHandler(cs, nil, Options{}))
	defer srv.Close()

	body := getJSON(t, srv.URL+"/v1/cell?i=0&j=0", http.StatusServiceUnavailable)
	if !strings.Contains(errMessage(t, body), "checksum") {
		t.Errorf("error = %v", body["error"])
	}
	getJSON(t, srv.URL+"/v1/row?i=1", http.StatusServiceUnavailable)
	getJSON(t, srv.URL+"/v1/row?i=1", http.StatusServiceUnavailable)

	// Health and metadata endpoints stay up: corruption is not an outage.
	getJSON(t, srv.URL+"/v1/healthz", http.StatusOK)
	getJSON(t, srv.URL+"/v1/info", http.StatusOK)

	metrics := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	if n := metrics["store_corruptions"].(float64); n != 3 {
		t.Errorf("store_corruptions = %v, want 3", n)
	}
	// The same count is the registry gauge the Prometheus view renders as
	// seqstore_store_corruptions_total.
	if n := metrics["gauges"].(map[string]interface{})["store_corruptions_total"]; n != 3.0 {
		t.Errorf("gauges.store_corruptions_total = %v, want 3", n)
	}
}

// TestCancelledRequestIs499 pins the context satellite: a client that goes
// away mid-aggregation is recorded with the nginx-convention 499 status,
// not a 500.
func TestCancelledRequestIs499(t *testing.T) {
	srv, h, _ := newTestServer(t, Options{})
	_ = srv
	req := httptest.NewRequest(http.MethodPost, "/v1/aggregate", strings.NewReader(`{"f":"avg"}`))
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // already gone before the query starts
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != api.StatusClientClosedRequest {
		t.Errorf("cancelled aggregate: status %d, want %d", rec.Code, api.StatusClientClosedRequest)
	}
}
