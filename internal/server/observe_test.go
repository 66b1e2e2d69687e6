package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/matio"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// updateGolden regenerates the /metrics schema golden files:
//
//	go test ./internal/server/ -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// get issues a GET and returns the response with its body read.
func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	resp, err := fetch(url, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestCostHeaderColdWarm pins the paper's one-access claim live over HTTP:
// every cell request costs exactly one disk access (one U-row fetch), the
// first and the repeat alike; a cell of a §6.2 zero row costs none, and
// neither does a cell of a hot (just appended) row.
func TestCostHeaderColdWarm(t *testing.T) {
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(60))
	st, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.12, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	zero := st.ZeroRows()
	if len(zero) == 0 {
		t.Fatal("fixture has no flagged zero row")
	}
	srv := httptest.NewServer(NewHandler(st, nil, Options{}))
	defer srv.Close()
	costOf := func(base string, i, j int) string {
		t.Helper()
		resp, body := get(t, fmt.Sprintf("%s/v1/cell?i=%d&j=%d", base, i, j), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cell (%d, %d): status %d: %s", i, j, resp.StatusCode, body)
		}
		return resp.Header.Get("X-Cost-Disk-Accesses")
	}
	cold := 1
	for cold < 60 && st.IsZeroRow(cold) {
		cold++
	}
	for k := 0; k < 3; k++ {
		if got := costOf(srv.URL, cold, 30); got != "1" {
			t.Errorf("cell read %d: X-Cost-Disk-Accesses = %q, want 1", k, got)
		}
	}
	if got := costOf(srv.URL, int(zero[0]), 30); got != "0" {
		t.Errorf("zero-row cell: X-Cost-Disk-Accesses = %q, want 0", got)
	}

	// The trace ring tells the same story: newest-first, the zero-row cell
	// read a row without touching the disk, each repeat paid its access.
	_, body := get(t, srv.URL+"/v1/debug/traces", nil)
	var traces struct {
		Traces []struct {
			Name string               `json:"name"`
			Cost trace.LedgerSnapshot `json:"cost"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(traces.Traces))
	}
	for k, tr := range traces.Traces {
		want := trace.LedgerSnapshot{RowsRead: 1, DiskAccesses: 1, PagesTouched: 1}
		if k == 0 {
			want = trace.LedgerSnapshot{RowsRead: 1}
		}
		if tr.Name != "/v1/cell" || tr.Cost != want {
			t.Errorf("trace %d: %s cost %+v, want %+v", k, tr.Name, tr.Cost, want)
		}
	}

	// A hot row is served from memory.
	wsrv, _, _, _ := newWritableServer(t, Options{}, ingest.Options{DisableBackground: true})
	postBulk(t, wsrv.URL, bulkLine(t, "w-0", rampRow(48, 3)), http.StatusOK)
	if got := costOf(wsrv.URL, 40, 5); got != "0" {
		t.Errorf("hot cell: X-Cost-Disk-Accesses = %q, want 0", got)
	}
}

// TestRequestIDPropagation: a well-formed client ID is echoed on the
// response and lands on the trace of a worker-sharded aggregate; a
// malformed one is replaced with a fresh 16-hex ID.
func TestRequestIDPropagation(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{QueryWorkers: 4})

	const id = "obs-test.request-42"
	resp, _ := get(t, srv.URL+"/v1/aggregate?f=sum", map[string]string{"X-Request-Id": id})
	if got := resp.Header.Get("X-Request-Id"); got != id {
		t.Errorf("X-Request-Id = %q, want echo of %q", got, id)
	}

	resp, _ = get(t, srv.URL+"/v1/healthz", map[string]string{"X-Request-Id": "bad id! not/hex"})
	fresh := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(fresh) {
		t.Errorf("malformed client ID not replaced: got %q", fresh)
	}

	_, body := get(t, srv.URL+"/v1/debug/traces", nil)
	var traces struct {
		Traces []struct {
			RequestID string `json:"request_id"`
			Name      string `json:"name"`
			Cost      struct {
				WorkerChunks int64 `json:"worker_chunks"`
			} `json:"cost"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range traces.Traces {
		if tr.RequestID != id {
			continue
		}
		found = true
		if tr.Name != "/v1/aggregate" {
			t.Errorf("trace name = %q", tr.Name)
		}
		// The ledger was fed from inside the query workers: the client's
		// request ID reached them through the context.
		if tr.Cost.WorkerChunks < 1 {
			t.Errorf("agg trace has no worker chunks: ledger not propagated")
		}
		hasEval := false
		for _, sp := range tr.Spans {
			if sp.Name == "evaluate" {
				hasEval = true
			}
		}
		if !hasEval {
			t.Errorf("agg trace missing evaluate span: %+v", tr.Spans)
		}
	}
	if !found {
		t.Fatalf("trace for request %q not in ring", id)
	}
}

// TestMetricsPromLive scrapes the live ?format=prom exposition and runs it
// through the strict parser: well-formed families, monotone cumulative
// histograms, and the U-row read counter live after traffic.
func TestMetricsPromLive(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	get(t, srv.URL+"/v1/cell?i=3&j=9", nil)
	get(t, srv.URL+"/v1/cell?i=3&j=9", nil)

	resp, body := get(t, srv.URL+"/v1/metrics?format=prom", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	pm, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("live exposition does not parse: %v", err)
	}
	if v := pm.Get("seqstore_go_goroutines"); len(v) != 1 || v[0] < 1 {
		t.Errorf("seqstore_go_goroutines = %v", v)
	}
	if v := pm.Get("seqstore_uptime_seconds"); len(v) != 1 {
		t.Errorf("seqstore_uptime_seconds = %v", v)
	}
	if v := pm.Get("seqstore_io_row_reads_total"); len(v) != 1 || v[0] < 2 {
		t.Errorf("seqstore_io_row_reads_total = %v after two cells, want ≥ 2", v)
	}
	if pm.Types["seqstore_request_duration_seconds"] != "histogram" {
		t.Errorf("request duration family type = %q", pm.Types["seqstore_request_duration_seconds"])
	}
}

// --- Golden schema pinning (the `make metrics-golden` stage) ---------------

// jsonSchema flattens a decoded JSON body into sorted key paths with type
// suffixes. Map keys beginning with "/" (endpoint patterns) collapse to
// "*" and arrays descend into their first element, so the schema is stable
// across traffic and store sizes while still catching shape regressions.
func jsonSchema(v interface{}, prefix string, out map[string]string) {
	switch t := v.(type) {
	case map[string]interface{}:
		for k, child := range t {
			if strings.HasPrefix(k, "/") {
				k = "*"
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			jsonSchema(child, p, out)
		}
	case []interface{}:
		if len(t) > 0 {
			jsonSchema(t[0], prefix+"[]", out)
		} else {
			out[prefix+"[]"] = "empty"
		}
	case string:
		out[prefix] = "string"
	case float64:
		out[prefix] = "number"
	case bool:
		out[prefix] = "bool"
	case nil:
		out[prefix] = "null"
	default:
		out[prefix] = fmt.Sprintf("%T", t)
	}
}

func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	sort.Strings(got)
	text := strings.Join(got, "\n") + "\n"
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if text != string(want) {
		t.Errorf("%s schema drifted from golden; diff the output or rerun with -update-golden\ngot:\n%s\nwant:\n%s",
			name, text, want)
	}
}

// TestMetricsJSONSchemaGolden pins the key structure of the /v1/metrics
// JSON body against testdata/metrics_json_schema.golden.
func TestMetricsJSONSchemaGolden(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	get(t, srv.URL+"/v1/cell?i=1&j=1", nil) // make latency fields non-degenerate
	body := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	schema := make(map[string]string)
	jsonSchema(map[string]interface{}(body), "", schema)
	lines := make([]string, 0, len(schema))
	for k, typ := range schema {
		lines = append(lines, k+" "+typ)
	}
	checkGolden(t, "metrics_json_schema.golden", lines)
}

// TestMetricsPromSchemaGolden pins the family names and types of the
// Prometheus exposition against testdata/metrics_prom_schema.golden.
func TestMetricsPromSchemaGolden(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	get(t, srv.URL+"/v1/cell?i=1&j=1", nil)
	_, body := get(t, srv.URL+"/v1/metrics?format=prom", nil)
	pm, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(pm.Types))
	for name, typ := range pm.Types {
		lines = append(lines, name+" "+typ)
	}
	checkGolden(t, "metrics_prom_schema.golden", lines)
}
