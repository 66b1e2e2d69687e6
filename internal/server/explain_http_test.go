package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/trace"
)

// postAgg posts an aggregate request body and decodes the typed response.
func postAgg(t *testing.T, url, body string) (*http.Response, api.AggregateResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/aggregate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status %d: %s", resp.StatusCode, raw)
	}
	var out api.AggregateResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode: %v (%s)", err, raw)
	}
	return resp, out
}

// TestExplainHTTP pins the explain acceptance over HTTP: the block reports
// the plan the dispatch actually chose for each aggregate kind, and on a
// cold store the estimated row-run cost equals the executed ledger — which in
// turn equals the X-Cost-Disk-Accesses header on the wire.
func TestExplainHTTP(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{QueryWorkers: 2})

	// sum dispatches to the factored path. Cold store: estimates are exact.
	resp, out := postAgg(t, srv.URL, `{"f":"sum","explain":true}`)
	ex := out.Explain
	if ex == nil {
		t.Fatal("explain requested but absent")
	}
	if ex.Plan != "factored" {
		t.Fatalf("sum plan %q, want factored", ex.Plan)
	}
	if ex.Workers != 2 {
		t.Fatalf("workers %d, want 2", ex.Workers)
	}
	if ex.EstDiskAccesses != ex.Cost.DiskAccesses || ex.EstRowsRead != ex.Cost.RowsRead ||
		ex.EstPagesTouched != ex.Cost.PagesTouched || ex.EstDeltasProbed != ex.Cost.DeltasProbed {
		t.Fatalf("cold estimates != executed ledger: est (disk %d rows %d pages %d deltas %d) vs %+v",
			ex.EstDiskAccesses, ex.EstRowsRead, ex.EstPagesTouched, ex.EstDeltasProbed, ex.Cost)
	}
	hdr, err := strconv.ParseInt(resp.Header.Get(trace.HeaderDiskAccesses), 10, 64)
	if err != nil || hdr != ex.Cost.DiskAccesses {
		t.Fatalf("header disk accesses %d (err %v) != explain ledger %d", hdr, err, ex.Cost.DiskAccesses)
	}

	// min dispatches to the projected path, count to the closed form.
	if _, out = postAgg(t, srv.URL, `{"f":"min","explain":true}`); out.Explain.Plan != "projected" {
		t.Fatalf("min plan %q, want projected", out.Explain.Plan)
	}
	_, out = postAgg(t, srv.URL, `{"f":"count","explain":true}`)
	if out.Explain.Plan != "count" || out.Explain.Cost.DiskAccesses != 0 {
		t.Fatalf("count explain: plan %q, %d disk accesses; want the zero-IO closed form",
			out.Explain.Plan, out.Explain.Cost.DiskAccesses)
	}

	// Without the flag the block stays off the wire.
	if _, out = postAgg(t, srv.URL, `{"f":"sum"}`); out.Explain != nil {
		t.Fatalf("unrequested explain present: %+v", out.Explain)
	}
}

// TestBatchExplainHTTP: the per-query explain flag annotates exactly the
// items that asked for it; the batch-level flag annotates all of them.
func TestBatchExplainHTTP(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})

	resp, err := http.Post(srv.URL+"/v1/aggregate/batch", "application/json",
		strings.NewReader(`{"queries":[{"f":"sum","explain":true},{"f":"min"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.BatchAggregateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 2 {
		t.Fatalf("items %d, want 2", len(out.Items))
	}
	if out.Items[0].Explain == nil || out.Items[0].Explain.Plan != "factored" {
		t.Fatalf("item 0 explain: %+v, want factored plan", out.Items[0].Explain)
	}
	if out.Items[1].Explain != nil {
		t.Fatalf("item 1 got an explain it never asked for: %+v", out.Items[1].Explain)
	}

	resp2, err := http.Post(srv.URL+"/v1/aggregate/batch", "application/json",
		strings.NewReader(`{"explain":true,"queries":[{"f":"sum"},{"f":"min"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for i, item := range out.Items {
		if item.Explain == nil {
			t.Fatalf("batch-level explain=true but item %d has no block", i)
		}
	}
}

// TestExplainSchemaGolden pins the explain response shape against
// testdata/explain_schema.golden so wire drift is a deliberate act.
func TestExplainSchemaGolden(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{QueryWorkers: 2})
	resp, err := http.Post(srv.URL+"/v1/aggregate", "application/json",
		strings.NewReader(`{"f":"sum","explain":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["explain"]; !ok {
		t.Fatal("no explain block to pin")
	}
	schema := make(map[string]string)
	jsonSchema(body, "", schema)
	lines := make([]string, 0, len(schema))
	for k, typ := range schema {
		lines = append(lines, k+" "+typ)
	}
	checkGolden(t, "explain_schema.golden", lines)
}

// TestServerSLO: configuring an objective surfaces the report on
// /v1/healthz and the seqstore_slo_* families on the Prometheus view,
// derived from the same histograms as the latency metrics.
func TestServerSLO(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{SLOObjective: time.Second, SLOTarget: 0.95})
	get(t, srv.URL+"/v1/cell?i=1&j=1", nil)

	_, body := get(t, srv.URL+"/v1/healthz", nil)
	var hz api.HealthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.SLO == nil || hz.SLO.ObjectiveMs != 1000 || hz.SLO.Target != 0.95 {
		t.Fatalf("healthz slo block: %+v", hz.SLO)
	}
	var cell bool
	for _, ep := range hz.SLO.Endpoints {
		if ep.Endpoint == "/v1/cell" {
			cell = true
			if ep.Count < 1 || ep.Attainment <= 0 || ep.Attainment > 1 || ep.BurnRate < 0 {
				t.Fatalf("cell slo entry out of range: %+v", ep)
			}
		}
	}
	if !cell {
		t.Fatal("no /v1/cell entry in the SLO report")
	}

	_, prom := get(t, srv.URL+"/v1/metrics?format=prom", nil)
	for _, fam := range []string{"seqstore_slo_objective_seconds", "seqstore_slo_target_ratio",
		"seqstore_slo_attainment_ratio", "seqstore_slo_burn_rate"} {
		if !strings.Contains(string(prom), "# TYPE "+fam+" gauge") {
			t.Fatalf("prom exposition missing %s", fam)
		}
	}

	// And without an objective the families stay absent, so the existing
	// prom goldens keep describing the default exposition.
	srv2, _, _ := newTestServer(t, Options{})
	_, prom2 := get(t, srv2.URL+"/v1/metrics?format=prom", nil)
	if strings.Contains(string(prom2), "seqstore_slo_") {
		t.Fatal("slo families emitted without an objective configured")
	}
}
