package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"seqstore/internal/ingest"
	"seqstore/internal/query"
)

func postAggBatch(t *testing.T, srvURL, body string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := http.Post(srvURL+"/v1/aggregate/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/aggregate/batch: status %d, want %d", resp.StatusCode, wantStatus)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	return out
}

// TestAggBatchEndpoint: a batch of aggregates returns, per item, exactly
// what the single /v1/aggregate endpoint returns for the same (f, rows, cols).
func TestAggBatchEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	queries := []struct{ f, rows, cols string }{
		{"sum", "0:60", "0:24"},
		{"min", "0:60", "0:24"},
		{"avg", "30:90", ""},
		{"stddev", "0:120", "5,7,9"},
		{"count", "0:10", "0:10"},
		{"max", "10:70", "0:12"},
	}
	var items []string
	for _, q := range queries {
		items = append(items, fmt.Sprintf(`{"f":%q,"rows":%q,"cols":%q}`, q.f, q.rows, q.cols))
	}
	out := postAggBatch(t, srv.URL, `{"queries":[`+strings.Join(items, ",")+`]}`, http.StatusOK)
	if out["errors"].(bool) {
		t.Fatalf("batch reported errors: %v", out)
	}
	results := out["items"].([]interface{})
	if len(results) != len(queries) {
		t.Fatalf("%d items for %d queries", len(results), len(queries))
	}
	for qi, q := range queries {
		item := results[qi].(map[string]interface{})
		if item["status"].(float64) != http.StatusOK {
			t.Fatalf("query %d: status %v: %v", qi, item["status"], item["error"])
		}
		single := getJSON(t, srv.URL+fmt.Sprintf("/v1/aggregate?f=%s&rows=%s&cols=%s", q.f, q.rows, q.cols), http.StatusOK)
		if item["value"] != single["value"] {
			t.Errorf("query %d (%s): batch %v != single %v", qi, q.f, item["value"], single["value"])
		}
	}
}

// TestAggBatchPerItemErrors: one bad query 400s alone; the rest evaluate.
func TestAggBatchPerItemErrors(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := `{"queries":[
		{"f":"sum","rows":"0:10","cols":"0:10"},
		{"f":"median","rows":"0:10","cols":"0:10"},
		{"f":"min","rows":"0:999999","cols":"0:10"},
		{"f":"max","rows":"0:10","cols":"0:10"}
	]}`
	out := postAggBatch(t, srv.URL, body, http.StatusOK)
	if !out["errors"].(bool) {
		t.Fatal("batch with bad items reported errors=false")
	}
	results := out["items"].([]interface{})
	status := func(i int) float64 { return results[i].(map[string]interface{})["status"].(float64) }
	if status(0) != http.StatusOK || status(3) != http.StatusOK {
		t.Errorf("valid items failed: %v", results)
	}
	if status(1) != http.StatusBadRequest {
		t.Errorf("unknown aggregate: status %v, want 400", status(1))
	}
	if status(2) != http.StatusBadRequest {
		t.Errorf("out-of-range rows: status %v, want 400", status(2))
	}
}

// TestPlanCacheMetrics: repeated aggregates hit the plan cache, and the
// hits/misses surface on /v1/metrics both as the plan_cache section and
// as plan_cache_* gauges.
func TestPlanCacheMetrics(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	for i := 0; i < 3; i++ {
		getJSON(t, srv.URL+"/v1/aggregate?f=min&rows=0:60&cols=0:24", http.StatusOK)
	}
	metrics := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	pc := metrics["plan_cache"].(map[string]interface{})
	if pc["enabled"] != true {
		t.Fatalf("plan cache not enabled by default: %v", pc)
	}
	if pc["misses"].(float64) < 1 || pc["hits"].(float64) < 2 {
		t.Errorf("plan cache hits=%v misses=%v after 3 identical queries", pc["hits"], pc["misses"])
	}
	gauges := metrics["gauges"].(map[string]interface{})
	if gauges["plan_cache_hits_total"].(float64) != pc["hits"].(float64) {
		t.Errorf("gauge %v != section %v", gauges["plan_cache_hits_total"], pc["hits"])
	}
}

// TestPlanCacheDisabled: PlanCacheSize < 0 turns the cache off; queries
// still answer and the metrics section says disabled.
func TestPlanCacheDisabled(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{PlanCacheSize: -1})
	getJSON(t, srv.URL+"/v1/aggregate?f=min&rows=0:60&cols=0:24", http.StatusOK)
	metrics := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	pc := metrics["plan_cache"].(map[string]interface{})
	if pc["enabled"] != false {
		t.Fatalf("plan cache enabled despite PlanCacheSize=-1: %v", pc)
	}
}

// TestPlanCacheInvalidationUnderIngestion is the coherence drill from the
// issue: interleave /v1/bulk writes, compactions and cached aggregate
// reads at several concurrency levels (run under -race by make race).
// After the dust settles, the plan-cache epoch must have advanced (every
// fold purged the plans), and every served aggregate must be bit-identical
// to a cold, cache-free evaluation over the post-fold store — a stale
// pre-fold panel would show up as a wrong sum over the folded rows.
func TestPlanCacheInvalidationUnderIngestion(t *testing.T) {
	aggQueries := []string{
		"/v1/aggregate?f=sum&rows=0:36&cols=0:24",
		"/v1/aggregate?f=stddev&rows=0:40&cols=0:48",
		"/v1/aggregate?f=min&rows=8:36&cols=4:20",
	}
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("writers=%d", workers), func(t *testing.T) {
			srv, h, ti, _ := newWritableServer(t,
				Options{CacheRows: 32, QueryWorkers: 2},
				ingest.Options{CompactAfter: 4, PersistPath: filepath.Join(t.TempDir(), "cold.sqz")})

			epoch0 := h.plans.Epoch()
			iters := 10
			if testing.Short() {
				iters = 3
			}
			var wg sync.WaitGroup
			errc := make(chan error, 2*workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) { // writer: appends trigger background folds
					defer wg.Done()
					for n := 0; n < iters; n++ {
						body := bulkLine(t, "", rampRow(48, float64(w*100+n)))
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
				go func(w int) { // reader: warms and re-warms the plan cache
					defer wg.Done()
					for n := 0; n < iters; n++ {
						for _, path := range aggQueries {
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
				t.Fatal(err)
			}

			// Quiesce: fold everything still hot, then observe the epoch.
			if _, err := ti.Compact(); err != nil {
				t.Fatal(err)
			}
			if h.plans.Epoch() == epoch0 {
				t.Fatal("plan-cache epoch never advanced across folds")
			}

			// Every served aggregate must equal the cold, cache-free
			// evaluation of the post-fold store, bit for bit. The handler
			// evaluates at QueryWorkers=2, so the reference does too
			// (summation order is deterministic per worker count).
			// The background compactor may still be folding a further batch
			// or recompressing: a pair of readings is only comparable when
			// the tier's epoch did not move between them, so a pair that
			// straddles a mutation is taken again.
			for at := 0; at < len(aggQueries); {
				path := aggQueries[at]
				epoch := ti.Epoch()
				served := getJSON(t, srv.URL+path, http.StatusOK)
				q := strings.SplitN(path, "?", 2)[1]
				params := map[string]string{}
				for _, kv := range strings.Split(q, "&") {
					k, v, _ := strings.Cut(kv, "=")
					params[k] = v
				}
				agg, err := query.ParseAggregate(params["f"])
				if err != nil {
					t.Fatal(err)
				}
				n, m := ti.Dims()
				rows, err := query.ParseIndexSpec(params["rows"], n)
				if err != nil {
					t.Fatal(err)
				}
				cols, err := query.ParseIndexSpec(params["cols"], m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := query.EvaluateOpts(ti, agg, query.Selection{Rows: rows, Cols: cols},
					query.Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if ti.Epoch() != epoch {
					continue
				}
				if served["value"].(float64) != want {
					t.Errorf("%s: served %v != cold post-fold evaluation %v (stale plan?)",
						path, served["value"], want)
				}
				at++
			}
		})
	}
}

// TestAggBatchOnWritableStore: the batch endpoint works over an ingestion
// tier (the generic engine path) and stays coherent across a fold.
func TestAggBatchOnWritableStore(t *testing.T) {
	srv, _, ti, _ := newWritableServer(t, Options{QueryWorkers: 1}, ingest.Options{DisableBackground: true})
	body := `{"queries":[{"f":"sum","rows":"0:40","cols":"0:48"},{"f":"min","rows":"0:40","cols":"0:48"}]}`
	postBulk(t, srv.URL, bulkLine(t, "", rampRow(48, 9)), http.StatusOK)
	out := postAggBatch(t, srv.URL, body, http.StatusOK)
	if out["errors"].(bool) {
		t.Fatalf("batch errors on writable store: %v", out)
	}
	if _, err := ti.Compact(); err != nil {
		t.Fatal(err)
	}
	out = postAggBatch(t, srv.URL, body, http.StatusOK)
	for qi, item := range out["items"].([]interface{}) {
		got := item.(map[string]interface{})
		q := []query.Aggregate{query.Sum, query.Min}[qi]
		n, m := ti.Dims()
		want, err := query.EvaluateOpts(ti, q, query.Selection{Rows: seqInts(0, 40), Cols: seqInts(0, m)},
			query.Options{Workers: 1})
		_ = n
		if err != nil {
			t.Fatal(err)
		}
		if got["value"].(float64) != want {
			t.Errorf("post-fold batch item %d: %v != %v", qi, got["value"], want)
		}
	}
}

func seqInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
