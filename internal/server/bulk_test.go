package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
)

// newWritableServer builds a server over an ingestion tier: a small SVDD
// cold segment plus a WAL in a test directory. Column labels c0..cN-1 are
// attached so label-addressed reads can reach appended rows.
func newWritableServer(t *testing.T, opts Options, iopts ingest.Options) (*httptest.Server, *Handler, *ingest.Tiered, *linalg.Matrix) {
	t.Helper()
	cfg := dataset.DefaultPhoneConfig(40)
	cfg.M = 48
	x := dataset.GeneratePhone(cfg)
	cold, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]string, cfg.M)
	for j := range cols {
		cols[j] = fmt.Sprintf("c%d", j)
	}
	labels := &store.Labels{Rows: make([]string, cfg.N), Cols: cols}
	ti, err := ingest.Open(cold, labels, filepath.Join(t.TempDir(), "hot.wal"), iopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ti.Close() })
	h := NewHandler(ti, labels, opts)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h, ti, x
}

// bulkLine renders one NDJSON document.
func bulkLine(t *testing.T, label string, values []float64) string {
	t.Helper()
	buf, err := json.Marshal(map[string]interface{}{"label": label, "values": values})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf) + "\n"
}

// rampRow builds a distinctive test row of the given width.
func rampRow(width int, seed float64) []float64 {
	row := make([]float64, width)
	for j := range row {
		row[j] = seed*1000 + float64(j)
	}
	return row
}

func postBulk(t *testing.T, srvURL, body string, wantStatus int) (map[string]interface{}, http.Header) {
	t.Helper()
	resp, err := http.Post(srvURL+"/v1/bulk", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/bulk: status %d, want %d", resp.StatusCode, wantStatus)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode bulk response: %v", err)
	}
	return out, resp.Header
}

func TestBulkEndpoint(t *testing.T) {
	srv, _, ti, _ := newWritableServer(t, Options{}, ingest.Options{DisableBackground: true})

	// Two documents, one with an ES-style action line, one bare.
	body := "{\"create\":{}}\n" +
		bulkLine(t, "w-0", rampRow(48, 1)) +
		"\n" + // blank lines are tolerated
		bulkLine(t, "w-1", rampRow(48, 2))
	out, hdr := postBulk(t, srv.URL, body, http.StatusOK)
	if out["errors"].(bool) {
		t.Fatalf("errors = true: %v", out)
	}
	items := out["items"].([]interface{})
	if len(items) != 2 {
		t.Fatalf("items = %d, want 2", len(items))
	}
	first := items[0].(map[string]interface{})["create"].(map[string]interface{})
	if first["status"].(float64) != http.StatusCreated || first["row"].(float64) != 40 {
		t.Errorf("first item = %v, want status 201 row 40", first)
	}
	// The whole batch is one WAL fsync: exactly one disk access on the
	// write request's cost header.
	if got := hdr.Get("X-Cost-Disk-Accesses"); got != "1" {
		t.Errorf("bulk X-Cost-Disk-Accesses = %q, want 1", got)
	}
	if ti.HotRows() != 2 {
		t.Errorf("hot rows = %d, want 2", ti.HotRows())
	}

	// The appended rows serve immediately — exactly, and label-addressed.
	cell := getJSON(t, srv.URL+"/v1/cell?i=41&j=3", http.StatusOK)
	if v := cell["value"].(float64); v != 2003 {
		t.Errorf("hot cell = %v, want 2003", v)
	}
	byLabel := getJSON(t, srv.URL+"/v1/cell?row=w-1&col=c3", http.StatusOK)
	if v := byLabel["value"].(float64); v != 2003 {
		t.Errorf("label-addressed hot cell = %v, want 2003", v)
	}

	// Info and metrics reflect the tier.
	info := getJSON(t, srv.URL+"/v1/info", http.StatusOK)
	if info["writable"] != true || info["hotRows"].(float64) != 2 || info["rows"].(float64) != 42 {
		t.Errorf("info = %v", info)
	}
	metrics := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	ing, ok := metrics["ingest"].(map[string]interface{})
	if !ok {
		t.Fatalf("metrics has no ingest section: %v", metrics)
	}
	if ing["rows_appended"].(float64) != 2 || ing["wal_syncs"].(float64) < 1 {
		t.Errorf("ingest metrics = %v", ing)
	}
}

func TestBulkPerItemErrors(t *testing.T) {
	srv, _, ti, _ := newWritableServer(t, Options{}, ingest.Options{DisableBackground: true})

	short := rampRow(5, 1) // wrong width
	body := bulkLine(t, "bad-short", short) +
		bulkLine(t, "good", rampRow(48, 3)) +
		bulkLine(t, "bad-wide", rampRow(49, 4))
	out, _ := postBulk(t, srv.URL, body, http.StatusOK)
	if !out["errors"].(bool) {
		t.Fatalf("errors = false: %v", out)
	}
	items := out["items"].([]interface{})
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3", len(items))
	}
	statuses := make([]float64, 3)
	for k, it := range items {
		statuses[k] = it.(map[string]interface{})["create"].(map[string]interface{})["status"].(float64)
	}
	if statuses[0] != 400 || statuses[1] != 201 || statuses[2] != 400 {
		t.Errorf("item statuses = %v, want [400 201 400]", statuses)
	}
	// Only the good document landed.
	if ti.HotRows() != 1 {
		t.Errorf("hot rows = %d, want 1", ti.HotRows())
	}

	// Whole-request failures: malformed JSON, a NaN literal (not JSON — no
	// document boundary can be trusted past it), junk object, empty body.
	for _, bad := range []string{"{not json\n", "{\"label\":\"x\",\"values\":[NaN]}\n", "{\"frob\":1}\n", ""} {
		resp, err := http.Post(srv.URL+"/v1/bulk", "application/x-ndjson", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bulk body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// GET on the write endpoint is 405 with the right Allow verb.
	resp, err := http.Get(srv.URL + "/v1/bulk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/bulk: status %d Allow %q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestBulkColdCellCostsOneAccess is the acceptance criterion for the cost
// model across the row lifecycle: a hot row serves with zero disk accesses;
// after compaction folds it into the cold segment, the same (uncached) cell
// reports exactly one.
func TestBulkColdCellCostsOneAccess(t *testing.T) {
	srv, _, ti, _ := newWritableServer(t, Options{}, ingest.Options{DisableBackground: true})

	postBulk(t, srv.URL, bulkLine(t, "w-0", rampRow(48, 7)), http.StatusOK)

	costOf := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		return resp.Header.Get("X-Cost-Disk-Accesses")
	}

	hotURL := srv.URL + "/v1/cell?i=40&j=3"
	if got := costOf(hotURL); got != "0" {
		t.Errorf("hot cell X-Cost-Disk-Accesses = %q, want 0", got)
	}
	if n, err := ti.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	if ti.IsHot(40) {
		t.Fatal("row 40 still hot after compaction")
	}
	if got := costOf(hotURL); got != "1" {
		t.Errorf("cold cell X-Cost-Disk-Accesses = %q, want 1", got)
	}
}

// TestBulkCacheInvalidation drives a row across the fold end to end: read
// while hot it serves its exact values, and after compaction replaced them
// with a folded reconstruction, the row and its cells serve that
// reconstruction bit for bit — nothing serves the stale exact values.
func TestBulkCacheInvalidation(t *testing.T) {
	srv, _, ti, _ := newWritableServer(t, Options{}, ingest.Options{DisableBackground: true})

	postBulk(t, srv.URL, bulkLine(t, "w-0", rampRow(48, 5)), http.StatusOK)
	before := getJSON(t, srv.URL+"/v1/row?i=40", http.StatusOK)
	if v := before["values"].([]interface{})[0].(float64); v != 5000 {
		t.Fatalf("hot row cell = %v, want exact 5000", v)
	}
	if _, err := ti.Compact(); err != nil {
		t.Fatal(err)
	}
	after := getJSON(t, srv.URL+"/v1/row?i=40", http.StatusOK)
	want, err := ti.Row(40, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range after["values"].([]interface{}) {
		if v.(float64) != want[j] {
			t.Fatalf("col %d: served %v, store reconstructs %v (stale read?)", j, v, want[j])
		}
	}
	for _, j := range []int{0, 7, 47} {
		cell := getJSON(t, fmt.Sprintf("%s/v1/cell?i=40&j=%d", srv.URL, j), http.StatusOK)
		if v := cell["value"].(float64); v != want[j] {
			t.Fatalf("cell (40, %d): served %v, store reconstructs %v (stale read?)", j, v, want[j])
		}
	}
}

// TestBulkReadWriteHammer interleaves HTTP bulk writes with /v1/rows reads
// and /v1/aggregate aggregations while the background compactor folds rows, at
// several concurrency levels. Run with -race this is the acceptance drill
// for the tier's locking protocol at the serving layer.
func TestBulkReadWriteHammer(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, _, _, _ := newWritableServer(t, Options{}, ingest.Options{
				CompactAfter: 8,
				PersistPath:  filepath.Join(t.TempDir(), "cold.sqz"),
			})

			iters := 12
			if testing.Short() {
				iters = 4
			}
			var wg sync.WaitGroup
			errc := make(chan error, 2*workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) { // writer
					defer wg.Done()
					for n := 0; n < iters; n++ {
						body := bulkLine(t, "", rampRow(48, float64(w*1000+n))) +
							bulkLine(t, "", rampRow(48, float64(w*1000+n)+0.5))
						resp, err := http.Post(srv.URL+"/v1/bulk", "application/x-ndjson", strings.NewReader(body))
						if err != nil {
							errc <- err
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							errc <- fmt.Errorf("writer %d: bulk status %d", w, resp.StatusCode)
							return
						}
					}
				}(w)
				wg.Add(1)
				go func(w int) { // reader
					defer wg.Done()
					for n := 0; n < iters; n++ {
						for _, path := range []string{"/v1/rows?i=0:8", "/v1/aggregate?f=sum&rows=0:16&cols=0:10", "/v1/cell?i=39&j=7"} {
							resp, err := fetch(srv.URL+path, nil)
							if err != nil {
								errc <- err
								return
							}
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								errc <- fmt.Errorf("reader %d: %s status %d", w, path, resp.StatusCode)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}

			// Post-storm invariant: every acknowledged row is readable and
			// the unified dims add up.
			info := getJSON(t, srv.URL+"/v1/info", http.StatusOK)
			wantRows := 40 + workers*iters*2
			if got := int(info["rows"].(float64)); got != wantRows {
				t.Errorf("rows = %d, want %d", got, wantRows)
			}
			getJSON(t, fmt.Sprintf("%s/v1/row?i=%d", srv.URL, wantRows-1), http.StatusOK)
		})
	}
}
