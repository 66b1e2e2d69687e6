package api_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/cluster"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/server"
	"seqstore/internal/store"
	"seqstore/internal/trace"
)

// The /v1 contract, once, against every deployment shape. Each shape below
// is a front door on a loopback listener; the table in TestV1Contract runs
// unchanged against all of them, so a behaviour one stack has and another
// lacks is a failing row, not a second test file.

const (
	contractRows, contractCols = 48, 20

	// Front-door batch limits, small enough to hit.
	limitCells, limitRows, limitQueries = 4, 3, 2
)

// syncBuffer collects the front door's request log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// diskRecorder sums the disk accesses the shards report to a proxy: it
// wraps the store nodes' handlers, which serve every channel frame, and
// reads the X-Cost-Disk-Accesses header the node's middleware set.
type diskRecorder struct {
	disk atomic.Int64
}

func (rt *diskRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if v, err := strconv.ParseInt(w.Header().Get(trace.HeaderDiskAccesses), 10, 64); err == nil {
			rt.disk.Add(v)
		}
	})
}

// shape is one running deployment.
type shape struct {
	name     string
	url      string
	log      *syncBuffer
	shards   *diskRecorder // nil unless the front door is a proxy
	writable bool
}

// frontLogger is the request log every shape's front door gets. With the
// nanosecond slow-query threshold the shapes set, every request crosses it,
// so the Warn line with the ledger is always there to inspect.
func frontLogger(log *syncBuffer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(log, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

func listen(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// contractLabels names the rows r0, r1, … and the columns c0, c1, … of a
// rows×cols store, so store nodes answer label-addressed cells too.
func contractLabels(rows, cols int) *store.Labels {
	l := &store.Labels{}
	for i := 0; i < rows; i++ {
		l.Rows = append(l.Rows, fmt.Sprintf("r%d", i))
	}
	for j := 0; j < cols; j++ {
		l.Cols = append(l.Cols, fmt.Sprintf("c%d", j))
	}
	return l
}

func localShape(t *testing.T, name string, st store.Store) *shape {
	t.Helper()
	sh := &shape{name: name, log: &syncBuffer{}}
	_, sh.writable = st.(*ingest.Tiered)
	sh.url = listen(t, server.NewHandler(st, contractLabels(st.Dims()), server.Options{
		MaxBatchCells: limitCells, MaxBatchRows: limitRows, MaxBatchQueries: limitQueries,
		Logger: frontLogger(sh.log), SlowQuery: time.Nanosecond,
	}))
	return sh
}

// proxyShape fronts the given shard stores (contiguous row ranges, in
// order, the last one open-ended) with a proxy.
func proxyShape(t *testing.T, name string, shards []store.Store) *shape {
	t.Helper()
	sh := &shape{name: name, log: &syncBuffer{}, shards: &diskRecorder{}}
	topo := &cluster.Topology{}
	lo := 0
	for s, st := range shards {
		n, _ := st.Dims()
		hi := lo + n
		if s == len(shards)-1 {
			hi = -1
		}
		topo.Shards = append(topo.Shards, cluster.Shard{
			Addr: listen(t, sh.shards.wrap(server.NewHandler(st, nil, server.Options{}))), Lo: lo, Hi: hi,
		})
		lo += n
	}
	sh.url = listen(t, cluster.NewWithTopology(topo, cluster.Options{
		MaxBatchCells: limitCells, MaxBatchRows: limitRows, MaxBatchQueries: limitQueries,
		Logger: frontLogger(sh.log), SlowQuery: time.Nanosecond,
	}))
	return sh
}

// phoneShapes are the four shapes over the same compressed phone matrix.
func phoneShapes(t *testing.T) []*shape {
	t.Helper()
	cfg := dataset.DefaultPhoneConfig(contractRows)
	cfg.M = contractCols
	cfg.ZeroFrac = 0
	x := dataset.GeneratePhone(cfg)
	compress := func() *core.Store {
		// The budget buys k ≥ 4, where linalg.Dot's partial sums make a
		// differently ordered cell reconstruction show in the last bit.
		st, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full := compress()
	tier, err := ingest.Open(compress(), nil, filepath.Join(t.TempDir(), "hot.wal"),
		ingest.Options{DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	slice := func(lo, hi int) store.Store {
		s, err := full.SliceRows(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []*shape{
		localShape(t, "store", full),
		localShape(t, "tiered", tier),
		proxyShape(t, "proxy×1", []store.Store{slice(0, contractRows)}),
		proxyShape(t, "proxy×2", []store.Store{slice(0, contractRows/2), slice(contractRows/2, contractRows)}),
	}
}

// oddStore is a store whose row `lo` holds NaN, +Inf and -Inf in its first
// three columns; every other cell is finite. (An ingestion tier cannot hold
// one — it refuses non-finite rows at the door — so there is no tiered
// shape over it.)
type oddStore struct{ lo, rows int }

func (o oddStore) at(i, j int) float64 {
	if i+o.lo == 0 {
		switch j {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
	}
	return float64((i+o.lo)*10 + j)
}

func (o oddStore) Dims() (int, int)     { return o.rows, 4 }
func (o oddStore) StoredNumbers() int64 { return int64(o.rows * 4) }
func (o oddStore) Method() store.Method { return store.MethodDCT }
func (o oddStore) outOfRange(i int) error {
	return fmt.Errorf("odd: row %d (%w)", i, seqerr.ErrOutOfRange)
}

func (o oddStore) Cell(i, j int) (float64, error) {
	if i < 0 || i >= o.rows || j < 0 || j >= 4 {
		return 0, o.outOfRange(i)
	}
	return o.at(i, j), nil
}

func (o oddStore) Row(i int, dst []float64) ([]float64, error) {
	if i < 0 || i >= o.rows {
		return nil, o.outOfRange(i)
	}
	dst = append(dst[:0], 0, 0, 0, 0)
	for j := range dst {
		dst[j] = o.at(i, j)
	}
	return dst, nil
}

func oddShapes(t *testing.T) []*shape {
	return []*shape{
		localShape(t, "store", oddStore{0, 4}),
		proxyShape(t, "proxy×1", []store.Store{oddStore{0, 4}}),
		proxyShape(t, "proxy×2", []store.Store{oddStore{0, 2}, oddStore{2, 2}}),
	}
}

// reply is one exchange with a front door.
type reply struct {
	status int
	header http.Header
	raw    []byte
}

func (r reply) json(t *testing.T) map[string]interface{} {
	t.Helper()
	var body map[string]interface{}
	if err := json.Unmarshal(r.raw, &body); err != nil {
		t.Fatalf("undecodable body %q: %v", r.raw, err)
	}
	return body
}

// errorDetail checks the error envelope's invariants and returns it.
func (r reply) errorDetail(t *testing.T) api.ErrorDetail {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(r.raw, &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("status %d without an error envelope: %q", r.status, r.raw)
	}
	if env.Error.RequestID != r.header.Get(trace.HeaderRequestID) {
		t.Errorf("envelope request_id %q != %s %q", env.Error.RequestID,
			trace.HeaderRequestID, r.header.Get(trace.HeaderRequestID))
	}
	return env.Error
}

func (sh *shape) do(t *testing.T, method, path, body string, hdr map[string]string) reply {
	t.Helper()
	req, err := http.NewRequest(method, sh.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{resp.StatusCode, resp.Header, raw}
}

// logLine returns the front door's slow-query line for a request id.
func (sh *shape) logLine(t *testing.T, id string) map[string]interface{} {
	t.Helper()
	for _, line := range strings.Split(sh.log.String(), "\n") {
		var rec map[string]interface{}
		if json.Unmarshal([]byte(line), &rec) == nil && rec["request_id"] == id {
			return rec
		}
	}
	t.Fatalf("no log line for request %q in:\n%s", id, sh.log.String())
	return nil
}

// traceOf returns the front door's ring entry for a request id.
func (sh *shape) traceOf(t *testing.T, id string) trace.TraceSnapshot {
	t.Helper()
	var body struct {
		Traces []trace.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(sh.do(t, "GET", api.TracesPattern, "", nil).raw, &body); err != nil {
		t.Fatal(err)
	}
	for _, tr := range body.Traces {
		if tr.RequestID == id {
			return tr
		}
	}
	t.Fatalf("request %q is not in the trace ring", id)
	return trace.TraceSnapshot{}
}

// contractCase is one row of the table: a request and what every shape
// must answer. wantCode "" means a 2xx with no envelope. check sees the
// shape for the few assertions that depend on what is behind the front door.
type contractCase struct {
	name         string
	method, path string
	body         string
	hdr          map[string]string
	wantStatus   int
	wantCode     string
	wantMessage  string // substring of the envelope message
	skip         func(*shape) bool
	check        func(t *testing.T, sh *shape, r reply)
}

func run(t *testing.T, shapes []*shape, cases []contractCase) {
	for _, sh := range shapes {
		for _, c := range cases {
			t.Run(sh.name+"/"+c.name, func(t *testing.T) {
				if c.skip != nil && c.skip(sh) {
					t.Skip("not applicable to this shape")
				}
				r := sh.do(t, c.method, c.path, c.body, c.hdr)
				if r.status != c.wantStatus {
					t.Fatalf("%s %s: status %d, want %d: %s", c.method, c.path, r.status, c.wantStatus, r.raw)
				}
				// Every answer the layer gives — success, refusal or 405 —
				// carries a request id and the full cost ledger.
				if r.status != http.StatusNotFound {
					if r.header.Get(trace.HeaderRequestID) == "" {
						t.Errorf("no %s header", trace.HeaderRequestID)
					}
					for _, h := range []string{trace.HeaderDiskAccesses, trace.HeaderRowsRead,
						trace.HeaderWorkerChunks} {
						if _, err := strconv.ParseInt(r.header.Get(h), 10, 64); err != nil {
							t.Errorf("%s = %q, want a count", h, r.header.Get(h))
						}
					}
				}
				if c.wantCode != "" {
					d := r.errorDetail(t)
					if d.Code != c.wantCode {
						t.Errorf("code %q, want %q (%s)", d.Code, c.wantCode, d.Message)
					}
					if !strings.Contains(d.Message, c.wantMessage) {
						t.Errorf("message %q lacks %q", d.Message, c.wantMessage)
					}
				}
				if c.check != nil {
					c.check(t, sh, r)
				}
			})
		}
	}
}

var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestV1Contract(t *testing.T) {
	endpoints := map[string]string{
		"/v1/info": "GET", "/v1/cell": "GET", "/v1/cells": "GET", "/v1/row": "GET", "/v1/rows": "GET",
		"/v1/metrics": "GET", "/v1/healthz": "GET", api.TracesPattern: "GET",
		"/v1/aggregate": "POST", "/v1/aggregate/batch": "POST", "/v1/bulk": "POST",
	}
	var cases []contractCase

	// 405 + Allow on every endpoint for every other verb.
	for path, allow := range endpoints {
		for _, method := range []string{"GET", "POST", "PUT", "DELETE", "HEAD"} {
			if method == allow {
				continue
			}
			c := contractCase{
				name: "405 " + method + " " + path, method: method, path: path,
				wantStatus: http.StatusMethodNotAllowed,
				check: func(t *testing.T, _ *shape, r reply) {
					if got := r.header.Get("Allow"); got != allow {
						t.Errorf("Allow = %q, want %q", got, allow)
					}
				},
			}
			if method != "HEAD" { // a HEAD response has no body to hold the envelope
				c.wantCode, c.wantMessage = api.CodeMethodNotAllowed, "use "+allow
			}
			cases = append(cases, c)
		}
	}

	// The routes removed with the deprecated surface are gone, not aliased.
	for _, path := range []string{"/cell?i=1&j=1", "/cells?at=1:1", "/row?i=1", "/rows?i=1", "/info",
		"/metrics", "/healthz", "/agg?f=sum", "/v1/agg?f=sum"} {
		cases = append(cases, contractCase{name: "removed " + path, method: "GET", path: path,
			wantStatus: http.StatusNotFound})
	}

	sum10 := `{"f":"sum","rows":"0:10"}`
	cases = append(cases, []contractCase{
		// --- request ids ---
		{name: "request id echoed", method: "GET", path: "/v1/healthz",
			hdr: map[string]string{trace.HeaderRequestID: "contract.id-42"}, wantStatus: 200,
			check: func(t *testing.T, _ *shape, r reply) {
				if got := r.header.Get(trace.HeaderRequestID); got != "contract.id-42" {
					t.Errorf("echoed %q", got)
				}
			}},
		{name: "request id sanitised", method: "GET", path: "/v1/healthz",
			hdr: map[string]string{trace.HeaderRequestID: "bad id! not/hex"}, wantStatus: 200,
			check: func(t *testing.T, _ *shape, r reply) {
				if got := r.header.Get(trace.HeaderRequestID); !hex16.MatchString(got) {
					t.Errorf("malformed id answered with %q, want a fresh 16-hex id", got)
				}
			}},

		// --- the ledger: what a cold aggregate costs is the same through
		// every door, and behind a proxy it is the sum of the shards' ---
		{name: "cost ledger and shard sum", method: "POST", path: "/v1/aggregate", body: sum10, wantStatus: 200,
			check: func(t *testing.T, sh *shape, _ reply) {
				if sh.shards != nil {
					sh.shards.disk.Store(0)
				}
				r := sh.do(t, "POST", "/v1/aggregate", sum10, nil)
				if got := r.header.Get(trace.HeaderDiskAccesses); got != "10" {
					t.Errorf("%s = %q, want 10 (one U row per selected row)", trace.HeaderDiskAccesses, got)
				}
				if sh.shards != nil && sh.shards.disk.Load() != 10 {
					t.Errorf("shards reported %d disk accesses, the front door 10", sh.shards.disk.Load())
				}
			}},

		// --- parity: one request log ---
		{name: "slow-query line carries the full ledger", method: "POST", path: "/v1/aggregate", body: sum10,
			hdr: map[string]string{trace.HeaderRequestID: "slow-line"}, wantStatus: 200,
			check: func(t *testing.T, sh *shape, _ reply) {
				rec := sh.logLine(t, "slow-line")
				for _, key := range []string{"disk_accesses", "rows_read", "pages_touched",
					"deltas_probed", "worker_chunks", "trace_id"} {
					if _, ok := rec[key]; !ok {
						t.Errorf("slow-query line lacks %q: %v", key, rec)
					}
				}
				if _, ok := rec["shards"]; ok != (sh.shards != nil) {
					t.Errorf("slow-query line names shards = %v behind %s: %v", ok, sh.name, rec)
				}
			}},

		// --- parity: one trace adoption rule ---
		{name: "valid traceparent adopted", method: "GET", path: "/v1/cell?i=1&j=1", wantStatus: 200,
			hdr: map[string]string{trace.HeaderRequestID: "tp-valid",
				trace.HeaderTraceparent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
			check: func(t *testing.T, sh *shape, r reply) {
				if got := sh.traceOf(t, "tp-valid").TraceID; got != "0123456789abcdef0123456789abcdef" {
					t.Errorf("trace id %q, want the caller's", got)
				}
				if r.header.Get(trace.HeaderSpans) == "" && sh.shards != nil {
					t.Errorf("traced caller got no %s summary", trace.HeaderSpans)
				}
			}},
		{name: "malformed traceparent ignored", method: "GET", path: "/v1/cell?i=1&j=1", wantStatus: 200,
			hdr: map[string]string{trace.HeaderRequestID: "tp-bad", trace.HeaderTraceparent: "00-xyz-01"},
			check: func(t *testing.T, sh *shape, _ reply) {
				if got := sh.traceOf(t, "tp-bad").TraceID; len(got) != 32 || strings.Contains(got, "xyz") {
					t.Errorf("trace id %q, want a fresh root", got)
				}
			}},
		{name: "traces are redacted", method: "GET", path: "/v1/cell?i=2&j=2&customer=SECRET-XYZ", wantStatus: 200,
			check: func(t *testing.T, sh *shape, _ reply) {
				sh.do(t, "GET", api.TracesPattern, "", nil)
				s := string(sh.do(t, "GET", api.TracesPattern, "", nil).raw)
				if strings.Contains(s, "SECRET-XYZ") || strings.Contains(s, "?") {
					t.Error("trace output leaked a query string")
				}
				if strings.Contains(s, `"name":"`+api.TracesPattern+`"`) {
					t.Error("traces endpoint recorded itself in the ring")
				}
			}},

		// --- malformed and oversized bodies ---
		{name: "aggregate body malformed", method: "POST", path: "/v1/aggregate", body: `{"f":`,
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: "malformed JSON"},
		{name: "aggregate body oversized", method: "POST", path: "/v1/aggregate",
			body:       `{"rows":"` + strings.Repeat("1,", 600000) + `1"}`,
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: "malformed JSON"},
		{name: "batch body malformed", method: "POST", path: "/v1/aggregate/batch", body: `{"queries":[`,
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: "malformed JSON"},
		{name: "batch without queries", method: "POST", path: "/v1/aggregate/batch", body: `{}`,
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: "non-empty"},
		{name: "bulk body malformed", method: "POST", path: "/v1/bulk", body: "{not json\n",
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: "malformed JSON",
			skip: func(sh *shape) bool { return !sh.writable }},
		{name: "bulk on a read-only store", method: "POST", path: "/v1/bulk", body: "{\"values\":[1]}\n",
			wantStatus: 403, wantCode: api.CodeNotWritable, wantMessage: "read-only",
			skip: func(sh *shape) bool { return sh.writable }},

		// --- point reads: one reconstruction, whichever endpoint serves it ---
		{name: "point reads agree bit for bit", method: "GET", path: "/v1/rows?i=0:3", wantStatus: 200,
			check: func(t *testing.T, sh *shape, r reply) {
				get := func(path string, out interface{}) {
					t.Helper()
					rep := sh.do(t, "GET", path, "", nil)
					if rep.status != 200 {
						t.Fatalf("%s: status %d: %s", path, rep.status, rep.raw)
					}
					if err := json.Unmarshal(rep.raw, out); err != nil {
						t.Fatal(err)
					}
				}
				same := func(what string, got *float64, want float64) {
					t.Helper()
					if got == nil || math.Float64bits(*got) != math.Float64bits(want) {
						t.Fatalf("%s = %v, the row says %v", what, api.NumValue(got, ""), want)
					}
				}
				var batch api.RowsResponse
				if err := json.Unmarshal(r.raw, &batch); err != nil || len(batch.Rows) != 3 {
					t.Fatalf("/v1/rows: %v %+v", err, batch)
				}
				for _, i := range []int{0, 2, contractRows/2 - 1, contractRows / 2, contractRows - 1} {
					var row api.RowResponse
					get(fmt.Sprintf("/v1/row?i=%d", i), &row)
					if len(row.Values) != contractCols {
						t.Fatalf("row %d has %d values", i, len(row.Values))
					}
					want := make([]float64, contractCols)
					for j, v := range row.Values {
						want[j] = *v
						if i < len(batch.Rows) {
							same(fmt.Sprintf("/v1/rows (%d, %d)", i, j), batch.Rows[i].Values[j], want[j])
						}
						var cell api.CellResponse
						get(fmt.Sprintf("/v1/cell?i=%d&j=%d", i, j), &cell)
						same(fmt.Sprintf("/v1/cell (%d, %d)", i, j), cell.Value, want[j])
					}
					for j := 0; j < contractCols; j += limitCells {
						var cells api.CellsResponse
						get(fmt.Sprintf("/v1/cells?at=%d:%d,%d:%d,%d:%d,%d:%d", i, j, i, j+1, i, j+2, i, j+3), &cells)
						for k, c := range cells.Cells {
							same(fmt.Sprintf("/v1/cells (%d, %d)", i, j+k), c.Value, want[j+k])
						}
					}
				}
			}},
		{name: "a lone read or aggregate is its batch of one", method: "GET", path: "/v1/cell?i=0&j=0", wantStatus: 200,
			check: func(t *testing.T, sh *shape, _ reply) {
				// pair fetches the lone form and its batch of one, and returns
				// both bodies once their statuses and disk accesses agree.
				pair := func(lone, batch [3]string) (reply, reply) {
					t.Helper()
					a := sh.do(t, lone[0], lone[1], lone[2], nil)
					b := sh.do(t, batch[0], batch[1], batch[2], nil)
					if a.status != 200 || b.status != 200 {
						t.Fatalf("%s: %d %s; %s: %d %s", lone[1], a.status, a.raw, batch[1], b.status, b.raw)
					}
					if da, db := a.header.Get(trace.HeaderDiskAccesses), b.header.Get(trace.HeaderDiskAccesses); da != db {
						t.Errorf("%s costs %s disk accesses, %s costs %s", lone[1], da, batch[1], db)
					}
					return a, b
				}
				// element is the one element of a point-read batch body.
				element := func(r reply, key string, k int) json.RawMessage {
					t.Helper()
					var body map[string]json.RawMessage
					var list []json.RawMessage
					if err := json.Unmarshal(r.raw, &body); err != nil || json.Unmarshal(body[key], &list) != nil || len(list) <= k {
						t.Fatalf("batch body %s: %v", r.raw, err)
					}
					return list[k]
				}
				get := func(path string) [3]string { return [3]string{"GET", path, ""} }
				for _, c := range [][2]int{{0, 0}, {5, 7}, {contractRows/2 - 1, 3}, {contractRows / 2, 11}, {contractRows - 1, contractCols - 1}} {
					lone, batch := pair(get(fmt.Sprintf("/v1/cell?i=%d&j=%d", c[0], c[1])), get(fmt.Sprintf("/v1/cells?at=%d:%d", c[0], c[1])))
					if el := element(batch, "cells", 0); !bytes.Equal(bytes.TrimSpace(lone.raw), el) {
						t.Errorf("/v1/cell %v = %s, its batch of one %s", c, lone.raw, el)
					}
					if sh.shards != nil {
						continue // label maps live on the store nodes
					}
					lone, _ = pair(get(fmt.Sprintf("/v1/cell?row=r%d&col=c%d", c[0], c[1])), get(fmt.Sprintf("/v1/cells?at=%d:%d", c[0], c[1])))
					var byLabel, byIndex api.CellResponse
					if json.Unmarshal(lone.raw, &byLabel) != nil || json.Unmarshal(element(batch, "cells", 0), &byIndex) != nil ||
						byLabel.I != c[0] || byLabel.J != c[1] || byLabel.Row != fmt.Sprintf("r%d", c[0]) || byLabel.Value == nil ||
						math.Float64bits(*byLabel.Value) != math.Float64bits(*byIndex.Value) {
						t.Errorf("label cell %v = %s, its batch of one %+v", c, lone.raw, byIndex)
					}
				}
				for _, i := range []int{0, contractRows/2 - 1, contractRows / 2, contractRows - 1} {
					lone, batch := pair(get(fmt.Sprintf("/v1/row?i=%d", i)), get(fmt.Sprintf("/v1/rows?i=%d", i)))
					if el := element(batch, "rows", 0); !bytes.Equal(bytes.TrimSpace(lone.raw), el) {
						t.Errorf("/v1/row?i=%d = %s, its batch of one %s", i, lone.raw, el)
					}
				}
				for _, f := range []string{"sum", "avg", "stddev", "min", "max", "count"} {
					for _, explain := range []bool{false, true} {
						q := fmt.Sprintf(`{"f":%q,"rows":"3:30,40","cols":"2:9","explain":%v}`, f, explain)
						lone, batch := pair([3]string{"POST", "/v1/aggregate", q}, [3]string{"POST", "/v1/aggregate/batch", `{"queries":[` + q + `]}`})
						var a api.AggregateResponse
						var b api.BatchAggregateResponse
						if err := json.Unmarshal(lone.raw, &a); err != nil {
							t.Fatal(err)
						}
						if err := json.Unmarshal(batch.raw, &b); err != nil || len(b.Items) != 1 {
							t.Fatalf("batch of one %s: %v", batch.raw, err)
						}
						it := b.Items[0]
						if it.Status != 200 || it.F != a.F || it.Rows != a.Rows || it.Cols != a.Cols ||
							math.Float64bits(api.NumValue(it.Value, it.Nonfinite)) != math.Float64bits(api.NumValue(a.Value, a.Nonfinite)) {
							t.Errorf("%s: /v1/aggregate %s, its batch of one %s", q, lone.raw, batch.raw)
						}
						if (a.Explain != nil) != explain || (it.Explain != nil) != explain {
							t.Fatalf("%s: explain blocks %v and %v", q, a.Explain, it.Explain)
						}
						if explain {
							ea, eb := *a.Explain, *it.Explain
							if ea.Plan != eb.Plan || ea.Cells != eb.Cells || ea.EstDiskAccesses != eb.EstDiskAccesses ||
								ea.EstRowsRead != eb.EstRowsRead || ea.Cost.DiskAccesses != eb.Cost.DiskAccesses ||
								len(ea.Shards) != len(eb.Shards) {
								t.Errorf("%s: explain %+v, its batch of one %+v", q, ea, eb)
							}
						}
					}
				}
			}},

		// --- the three batch limits ---
		{name: "cells at the limit", method: "GET", path: "/v1/cells?at=0:0,0:1,1:0,1:1", wantStatus: 200},
		{name: "cells over the limit", method: "GET", path: "/v1/cells?at=0:0,0:1,1:0,1:1,2:2",
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: "batch of 5 cells exceeds limit 4"},
		{name: "rows at the limit", method: "GET", path: "/v1/rows?i=0:3", wantStatus: 200},
		{name: "rows over the limit", method: "GET", path: "/v1/rows?i=0:4",
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: "batch of 4 rows exceeds limit 3"},
		{name: "queries over the limit", method: "POST", path: "/v1/aggregate/batch",
			body:       `{"queries":[{"f":"sum"},{"f":"min"},{"f":"max"}]}`,
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: "batch of 3 queries exceeds limit 2"},

		// --- the error envelope and its codes, with one set of messages ---
		{name: "metrics scope unknown", method: "GET", path: "/v1/metrics?scope=clustr&format=prom", wantStatus: 400,
			wantCode: api.CodeBadRequest, wantMessage: `unknown scope "clustr": accepted values are "cluster" or none`},
		{name: "cell without j", method: "GET", path: "/v1/cell?i=5", wantStatus: 400,
			wantCode: api.CodeBadRequest, wantMessage: "cell needs integer i and j (or label row and col) parameters"},
		{name: "cell row out of range", method: "GET", path: "/v1/cell?i=99999&j=0", wantStatus: 400,
			wantCode: api.CodeOutOfRange},
		{name: "cell column out of range", method: "GET", path: "/v1/cell?i=0&j=-1", wantStatus: 400,
			wantCode: api.CodeOutOfRange},
		// The failing element's own error fails the batch, unprefixed, as it
		// fails its lone twin — on a node, and through a proxy whose other
		// shard answered.
		{name: "a failing cell fails its batch as it fails alone", method: "GET",
			path: fmt.Sprintf("/v1/cells?at=0:0,%d:%d", contractRows-1, contractCols), wantStatus: 400,
			wantCode: api.CodeOutOfRange, wantMessage: fmt.Sprintf("column %d out of range %d", contractCols, contractCols),
			check: func(t *testing.T, sh *shape, r reply) {
				lone := sh.do(t, "GET", fmt.Sprintf("/v1/cell?i=%d&j=%d", contractRows-1, contractCols), "", nil)
				if a, b := r.errorDetail(t), lone.errorDetail(t); lone.status != r.status || a.Code != b.Code || a.Message != b.Message {
					t.Errorf("batch fails with %d %+v, the lone cell with %d %+v", r.status, a, lone.status, b)
				}
			}},
		{name: "cells spec malformed", method: "GET", path: "/v1/cells?at=5", wantStatus: 400,
			wantCode: api.CodeBadRequest, wantMessage: `bad cell "5": want i:j`},
		{name: "cells without at", method: "GET", path: "/v1/cells", wantStatus: 400,
			wantCode: api.CodeBadRequest, wantMessage: "cells needs at="},
		{name: "row without i", method: "GET", path: "/v1/row", wantStatus: 400,
			wantCode: api.CodeBadRequest, wantMessage: "row needs an integer i"},
		{name: "rows without spec", method: "GET", path: "/v1/rows", wantStatus: 400,
			wantCode: api.CodeBadRequest, wantMessage: "rows needs an i index spec"},
		{name: "rows spec empty", method: "GET", path: "/v1/rows?i=4:4", wantStatus: 400,
			wantCode: api.CodeBadRequest, wantMessage: "rows selection is empty"},
		{name: "rows spec negative", method: "GET", path: "/v1/rows?i=-1", wantStatus: 400,
			wantCode: api.CodeBadRequest, wantMessage: "negative index"},
		{name: "rows out of range", method: "GET", path: "/v1/rows?i=99999", wantStatus: 400,
			wantCode: api.CodeOutOfRange},
		{name: "unknown aggregate", method: "POST", path: "/v1/aggregate", body: `{"f":"median"}`,
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: `unknown aggregate "median"`},
		{name: "inverted range", method: "POST", path: "/v1/aggregate", body: `{"rows":"9:1"}`,
			wantStatus: 400, wantCode: api.CodeBadRequest, wantMessage: `rows: query: inverted range "9:1"`},
		{name: "selection out of range", method: "POST", path: "/v1/aggregate",
			body: `{"rows":"0:10","cols":"999:1000"}`, wantStatus: 400, wantCode: api.CodeOutOfRange,
			wantMessage: fmt.Sprintf("query: column 999 out of range %d", contractCols)},
		{name: "selection empty", method: "POST", path: "/v1/aggregate", body: `{"rows":"5:5"}`,
			wantStatus: 400, wantCode: api.CodeEmptySelection, wantMessage: "empty selection"},
		{name: "batch items fail alone, by one rule", method: "POST", path: "/v1/aggregate/batch",
			body: `{"queries":[{"f":"median"},{"f":"count","rows":"0:3","cols":"0:2"}]}`, wantStatus: 200,
			check: func(t *testing.T, _ *shape, r reply) {
				var resp api.BatchAggregateResponse
				if err := json.Unmarshal(r.raw, &resp); err != nil {
					t.Fatal(err)
				}
				if !resp.Errors || len(resp.Items) != 2 || resp.Items[0].Status != 400 ||
					!strings.Contains(resp.Items[0].Error, "unknown aggregate") {
					t.Fatalf("bad item: %+v", resp)
				}
				if it := resp.Items[1]; it.Status != 200 || it.Value == nil || *it.Value != 6 {
					t.Fatalf("good item: %+v", it)
				}
			}},
		{name: "batch item out of range is its own 400", method: "POST", path: "/v1/aggregate/batch",
			body: `{"queries":[{"f":"min","rows":"0:999999"}]}`, wantStatus: 200,
			check: func(t *testing.T, _ *shape, r reply) {
				var resp api.BatchAggregateResponse
				if err := json.Unmarshal(r.raw, &resp); err != nil {
					t.Fatal(err)
				}
				if !resp.Errors || resp.Items[0].Status != 400 || !strings.Contains(resp.Items[0].Error, "out of range") {
					t.Fatalf("item: %+v", resp.Items[0])
				}
			}},
	}...)
	run(t, phoneShapes(t), cases)
}

// TestV1ContractNonFinite: NaN/±Inf reconstructions serialize as null with
// a "nonfinite" marker and a 200 — never a truncated response or a
// spurious 500 — through every door.
func TestV1ContractNonFinite(t *testing.T) {
	marker := func(want interface{}) func(*testing.T, *shape, reply) {
		return func(t *testing.T, _ *shape, r reply) {
			body := r.json(t)
			if body["value"] != nil || body["nonfinite"] != want {
				t.Errorf("value %v nonfinite %v, want null and %v", body["value"], body["nonfinite"], want)
			}
		}
	}
	run(t, oddShapes(t), []contractCase{
		{name: "NaN cell", method: "GET", path: "/v1/cell?i=0&j=0", wantStatus: 200, check: marker("NaN")},
		{name: "+Inf cell", method: "GET", path: "/v1/cell?i=0&j=1", wantStatus: 200, check: marker("+Inf")},
		{name: "-Inf cell", method: "GET", path: "/v1/cell?i=0&j=2", wantStatus: 200, check: marker("-Inf")},
		{name: "finite cell has no marker", method: "GET", path: "/v1/cell?i=3&j=1", wantStatus: 200,
			check: func(t *testing.T, _ *shape, r reply) {
				body := r.json(t)
				if _, marked := body["nonfinite"]; marked || body["value"] != 31.0 {
					t.Errorf("finite cell: %v", body)
				}
			}},
		{name: "row nulls and counts", method: "GET", path: "/v1/row?i=0", wantStatus: 200,
			check: func(t *testing.T, _ *shape, r reply) {
				body := r.json(t)
				vals := body["values"].([]interface{})
				if vals[0] != nil || vals[1] != nil || vals[2] != nil || vals[3] != 3.0 || body["nonfinite"] != 3.0 {
					t.Errorf("row: %v", body)
				}
			}},
		{name: "NaN aggregate", method: "POST", path: "/v1/aggregate", body: `{"f":"avg","rows":"0:1","cols":"0:1"}`,
			wantStatus: 200, check: marker("NaN")},
		{name: "-Inf aggregate", method: "POST", path: "/v1/aggregate", body: `{"f":"min","rows":"0:4","cols":"1:4"}`,
			wantStatus: 200, check: marker("-Inf")},
	})
}
