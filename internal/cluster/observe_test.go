package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/telemetry"
	"seqstore/internal/telemetry/promcheck"
	"seqstore/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files instead of comparing")

// ringTraces fetches the proxy's /v1/debug/traces ring.
func ringTraces(t *testing.T, tc *testCluster) []trace.TraceSnapshot {
	t.Helper()
	w := tc.get(t, "/v1/debug/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("traces status %d: %s", w.Code, w.Body.String())
	}
	var body struct {
		Traces []trace.TraceSnapshot `json:"traces"`
	}
	decodeBody(t, w, &body)
	return body.Traces
}

// spanAttr extracts a span attribute; JSON decoding turns numbers into
// float64, so numeric attrs come back as float64.
func spanAttr(sp trace.SpanSnapshot, key string) (any, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

func attrInt(sp trace.SpanSnapshot, key string) (int64, bool) {
	v, ok := spanAttr(sp, key)
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return int64(n), true
	case int64:
		return n, true
	case int:
		return int64(n), true
	}
	return 0, false
}

// TestClusterTraceScatterGather is the tracing acceptance pin: one query
// through the proxy over two shards produces a single trace in the proxy
// ring whose per-shard child spans carry the scatter — a winner attempt per
// shard with the shard's ledger split, the splits summing exactly to the
// proxy's X-Cost-Disk-Accesses header — plus the shards' own remote spans
// folded in from the X-Trace-Spans response headers. It also pins the
// propagation satellites: the client-supplied X-Request-Id and the proxy's
// traceparent both reach every store node.
func TestClusterTraceScatterGather(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)

	var tp0, tp1, rid0, rid1 atomic.Value
	capture := func(shard int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/aggregate/batch" { // every aggregate's hop
				if shard == 0 {
					tp0.Store(r.Header.Get(trace.HeaderTraceparent))
					rid0.Store(r.Header.Get(trace.HeaderRequestID))
				} else {
					tp1.Store(r.Header.Get(trace.HeaderTraceparent))
					rid1.Store(r.Header.Get(trace.HeaderRequestID))
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	tc := startCluster(t, full, 2, 1, Options{}, capture)

	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/aggregate",
		strings.NewReader(`{"f":"sum"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.HeaderRequestID, "client-supplied-id-42")
	tc.proxy.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("aggregate status %d: %s", w.Code, w.Body.String())
	}
	wantDisk, err := strconv.ParseInt(w.Header().Get(trace.HeaderDiskAccesses), 10, 64)
	if err != nil {
		t.Fatalf("unparseable %s header: %v", trace.HeaderDiskAccesses, err)
	}
	if wantDisk <= 0 {
		t.Fatalf("proxy reported %d disk accesses; the scatter must have cost something", wantDisk)
	}

	// The client-supplied request id survives the proxy hop to both shards
	// and is echoed back.
	if got := w.Header().Get(trace.HeaderRequestID); got != "client-supplied-id-42" {
		t.Fatalf("proxy echoed request id %q", got)
	}
	for s, v := range []atomic.Value{rid0, rid1} {
		if id, _ := v.Load().(string); id != "client-supplied-id-42" {
			t.Fatalf("shard %d saw request id %q, want the client-supplied one", s, id)
		}
	}

	// Exactly one trace for the aggregate request, with a real trace id.
	traces := ringTraces(t, tc)
	var snap *trace.TraceSnapshot
	for i := range traces {
		if traces[i].Name == "/v1/aggregate" {
			if snap != nil {
				t.Fatal("more than one /v1/aggregate trace in the ring")
			}
			snap = &traces[i]
		}
	}
	if snap == nil {
		t.Fatal("no /v1/aggregate trace in the proxy ring")
	}
	if len(snap.TraceID) != 32 || snap.RequestID != "client-supplied-id-42" {
		t.Fatalf("trace identity: trace_id %q request_id %q", snap.TraceID, snap.RequestID)
	}

	// Both shards propagated the SAME trace id the proxy minted: the
	// traceparent each store node received names snap.TraceID.
	for s, v := range []atomic.Value{tp0, tp1} {
		tp, _ := v.Load().(string)
		sc, ok := trace.ParseTraceparent(tp)
		if !ok {
			t.Fatalf("shard %d received unparseable traceparent %q", s, tp)
		}
		if sc.TraceID != snap.TraceID {
			t.Fatalf("shard %d traceparent trace id %q, proxy trace id %q", s, sc.TraceID, snap.TraceID)
		}
	}

	// Per-shard child spans: a winner attempt per shard whose disk_accesses
	// splits sum exactly to the proxy header, plus folded remote spans.
	winners := map[int64]int64{} // shard -> disk split
	remotes := map[string]bool{}
	var diskSum int64
	for _, sp := range snap.Spans {
		if out, _ := spanAttr(sp, "outcome"); out == "winner" {
			shard, ok := attrInt(sp, "shard")
			if !ok {
				t.Fatalf("winner span %q has no shard attr", sp.Name)
			}
			disk, _ := attrInt(sp, "disk_accesses")
			winners[shard] += disk
			diskSum += disk
		}
		if rem, _ := spanAttr(sp, "remote"); rem == true {
			remotes[sp.Name] = true
		}
	}
	if len(winners) != 2 {
		t.Fatalf("winner spans cover shards %v, want both shards", winners)
	}
	if diskSum != wantDisk {
		t.Fatalf("winner span disk splits sum to %d, header says %d", diskSum, wantDisk)
	}
	// The store nodes' own spans came back in X-Trace-Spans and were folded
	// in under shard-prefixed names.
	for s := 0; s < 2; s++ {
		prefix := fmt.Sprintf("shard%d.", s)
		found := false
		for name := range remotes {
			if strings.HasPrefix(name, prefix) {
				found = true
			}
		}
		if !found {
			t.Fatalf("no remote spans folded in for shard %d (got %v)", s, remotes)
		}
	}
}

// TestHedgedLoserSpan is the fault-injection half of the tracing
// acceptance: the first attempt against a shard is held until the hedge
// wins the race, and the raced-out attempt still lands on the trace as a
// "loser" span alongside the winner.
func TestHedgedLoserSpan(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	var calls atomic.Int32
	release := make(chan struct{})
	hold := func(shard int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cell" && calls.Add(1) == 1 {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	tc := startCluster(t, full, 1, 1,
		Options{Timeout: 10 * time.Second, HedgeAfter: 30 * time.Millisecond}, hold)
	defer close(release)

	c := tc.proxy.shardsNow()[0]
	tr := trace.New("hedge-test", "/test")
	ctx := trace.NewContext(context.Background(), tr)
	resp, err := c.do(ctx, http.MethodGet, "/v1/cell?i=0&j=0", nil, true)
	if err != nil || resp.status != http.StatusOK {
		t.Fatalf("hedged read: %v (status %v)", err, resp)
	}

	// The winner's span is recorded before do returns; the loser's lands
	// when its attempt goroutine observes the cancelled context. Poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var winner, loser bool
		for _, sp := range tr.Spans() {
			switch out, _ := spanAttr(sp, "outcome"); out {
			case "winner":
				winner = true
			case "loser":
				loser = true
			}
		}
		if winner && loser {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("winner+loser spans never appeared; spans: %+v", tr.Spans())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.hedges.Load(); got < 1 {
		t.Fatalf("hedges counter = %d, want ≥ 1", got)
	}
}

// TestClusterExplain pins the proxied explain block: per-shard explains
// come back under one response, the top-level numbers are their sums, each
// shard's cold-store estimates equal its executed ledger, and the summed
// estimated disk accesses equal the proxy's X-Cost-Disk-Accesses header.
func TestClusterExplain(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	tc := startCluster(t, full, 2, 1, Options{}, nil)

	w := tc.post(t, "/v1/aggregate", `{"f":"sum","explain":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explain aggregate status %d: %s", w.Code, w.Body.String())
	}
	var resp api.AggregateResponse
	decodeBody(t, w, &resp)
	ex := resp.Explain
	if ex == nil {
		t.Fatal("explain requested but absent from the response")
	}
	if ex.Plan != "factored" {
		t.Fatalf("plan %q, want factored for sum over an svdd store", ex.Plan)
	}
	if len(ex.Shards) != 2 {
		t.Fatalf("explain carries %d shard blocks, want 2", len(ex.Shards))
	}
	var estDisk, estRows int64
	for _, se := range ex.Shards {
		if se.Plan != "factored" {
			t.Fatalf("shard %d plan %q", se.Shard, se.Plan)
		}
		// Cold store node: the estimate is exact against the shard's own
		// executed ledger.
		if se.EstDiskAccesses != se.Cost.DiskAccesses || se.EstRowsRead != se.Cost.RowsRead ||
			se.EstPagesTouched != se.Cost.PagesTouched || se.EstDeltasProbed != se.Cost.DeltasProbed {
			t.Fatalf("shard %d: estimates (disk %d rows %d pages %d deltas %d) != ledger (disk %d rows %d pages %d deltas %d)",
				se.Shard, se.EstDiskAccesses, se.EstRowsRead, se.EstPagesTouched, se.EstDeltasProbed,
				se.Cost.DiskAccesses, se.Cost.RowsRead, se.Cost.PagesTouched, se.Cost.DeltasProbed)
		}
		estDisk += se.EstDiskAccesses
		estRows += se.EstRowsRead
	}
	if ex.EstDiskAccesses != estDisk || ex.EstRowsRead != estRows {
		t.Fatalf("top-level sums (disk %d rows %d) != shard sums (disk %d rows %d)",
			ex.EstDiskAccesses, ex.EstRowsRead, estDisk, estRows)
	}
	hdrDisk, _ := strconv.ParseInt(w.Header().Get(trace.HeaderDiskAccesses), 10, 64)
	if ex.Cost.DiskAccesses != estDisk || hdrDisk != estDisk {
		t.Fatalf("estimated disk %d, proxy ledger %d, header %d — all must agree on a cold cluster",
			estDisk, ex.Cost.DiskAccesses, hdrDisk)
	}

	// Count answers at the proxy without touching a shard, and says so.
	w = tc.post(t, "/v1/aggregate", `{"f":"count","explain":true}`)
	var countResp api.AggregateResponse
	decodeBody(t, w, &countResp)
	if countResp.Explain == nil || countResp.Explain.Plan != "count" || len(countResp.Explain.Shards) != 0 {
		t.Fatalf("count explain: %+v", countResp.Explain)
	}

	// Batch form: explained items carry per-shard blocks too.
	w = tc.post(t, "/v1/aggregate/batch", `{"explain":true,"queries":[{"f":"min"},{"f":"avg"}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch explain status %d: %s", w.Code, w.Body.String())
	}
	var batch api.BatchAggregateResponse
	decodeBody(t, w, &batch)
	wantPlans := []string{"projected", "factored"}
	for qi, item := range batch.Items {
		if item.Status != http.StatusOK || item.Explain == nil {
			t.Fatalf("batch item %d: status %d explain %v", qi, item.Status, item.Explain)
		}
		if item.Explain.Plan != wantPlans[qi] || len(item.Explain.Shards) != 2 {
			t.Fatalf("batch item %d: plan %q shards %d, want %q over 2 shards",
				qi, item.Explain.Plan, len(item.Explain.Shards), wantPlans[qi])
		}
	}
}

// --- Cluster metrics plane ---------------------------------------------------

// checkGolden compares got against testdata/<name>, rewriting under
// -update-golden (the same idiom the server package uses).
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// promFamilyLines renders "family type" lines, sorted — the schema view of
// an exposition that stays stable across runs while values churn.
func promFamilyLines(m *promcheck.PromMetrics) []string {
	var lines []string
	for _, fam := range m.Families() {
		lines = append(lines, fam+" "+m.Types[fam])
	}
	sort.Strings(lines)
	return lines
}

// TestClusterPromGolden drives traffic through a two-shard cluster and pins
// the cluster-scope Prometheus exposition: it parses under the structural
// validator, every sample carries its shard label, and the family schema
// matches the golden file.
func TestClusterPromGolden(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	tc := startCluster(t, full, 2, 1, Options{}, nil)

	if w := tc.get(t, "/v1/aggregate?f=sum"); w.Code != http.StatusOK {
		t.Fatalf("warmup aggregate failed: %d", w.Code)
	}
	w := tc.get(t, "/v1/metrics?scope=cluster&format=prom")
	if w.Code != http.StatusOK {
		t.Fatalf("cluster prom status %d: %s", w.Code, w.Body.String())
	}
	m, err := promcheck.ParsePrometheus(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("cluster exposition does not parse: %v", err)
	}
	if len(m.Samples) == 0 {
		t.Fatal("cluster exposition is empty")
	}
	shardsSeen := map[string]bool{}
	for _, s := range m.Samples {
		shard, ok := s.Labels["shard"]
		if !ok {
			t.Fatalf("sample %s has no shard label: %v", s.Name, s.Labels)
		}
		shardsSeen[shard] = true
	}
	if !shardsSeen["0"] || !shardsSeen["1"] {
		t.Fatalf("cluster exposition covers shards %v, want both", shardsSeen)
	}
	// The shard that served the aggregate fragments reports the traffic.
	if reqs := m.Get("seqstore_requests_total"); len(reqs) == 0 {
		t.Fatal("no seqstore_requests_total samples in the cluster scope")
	}
	checkGolden(t, "cluster_prom_schema.golden", promFamilyLines(m))
}

// TestClusterMetricsJSON pins the cluster-scope JSON view — its scope, one
// entry per shard with the shard's index and address, each embedding the
// node's own metrics body — and checks that both cluster views come from
// one kind of shard request, the node's JSON /v1/metrics, and report what
// each node reports about itself.
func TestClusterMetricsJSON(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	var mu sync.Mutex
	scrapes := map[string]int{} // request URI → count, over all shards
	record := func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/metrics" {
				mu.Lock()
				scrapes[r.URL.RequestURI()]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
	tc := startCluster(t, full, 2, 1, Options{}, record)
	if w := tc.get(t, "/v1/aggregate?f=sum"); w.Code != http.StatusOK {
		t.Fatalf("warmup aggregate failed: %d", w.Code)
	}

	w := tc.get(t, "/v1/metrics?scope=cluster")
	if w.Code != http.StatusOK {
		t.Fatalf("cluster JSON status %d: %s", w.Code, w.Body.String())
	}
	var body struct {
		Scope  string `json:"scope"`
		Shards []struct {
			Shard   int                        `json:"shard"`
			Addr    string                     `json:"addr"`
			Metrics map[string]json.RawMessage `json:"metrics"`
		} `json:"shards"`
	}
	decodeBody(t, w, &body)
	if body.Scope != "cluster" || len(body.Shards) != 2 {
		t.Fatalf("cluster JSON: scope %q, %d shard entries, want cluster over 2", body.Scope, len(body.Shards))
	}
	for i, sh := range body.Shards {
		if sh.Shard != i || sh.Addr != tc.topo.Shards[i].Addr {
			t.Errorf("entry %d names shard %d at %q, want shard %d at %q", i, sh.Shard, sh.Addr, i, tc.topo.Shards[i].Addr)
		}
		for _, key := range []string{"store", "gauges", "endpoints", "traces"} {
			if _, ok := sh.Metrics[key]; !ok {
				t.Errorf("shard %d metrics lack the node key %q", i, key)
			}
		}
	}

	w = tc.get(t, "/v1/metrics?scope=cluster&format=prom")
	if w.Code != http.StatusOK {
		t.Fatalf("cluster prom status %d: %s", w.Code, w.Body.String())
	}
	m, err := promcheck.ParsePrometheus(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("cluster exposition does not parse: %v", err)
	}
	mu.Lock()
	if len(scrapes) != 1 || scrapes["/v1/metrics"] != 4 {
		t.Errorf("shards saw metrics requests %v, want only /v1/metrics, once per shard per view", scrapes)
	}
	mu.Unlock()

	for i, node := range tc.servers {
		resp, err := http.Get(node.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var own struct {
			Gauges map[string]float64 `json:"gauges"`
		}
		err = json.NewDecoder(resp.Body).Decode(&own)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := own.Gauges["store_stored_numbers"]
		if !ok {
			t.Fatalf("shard %d reports no store_stored_numbers gauge", i)
		}
		var got []float64
		for _, s := range m.Samples {
			if s.Name == "seqstore_store_stored_numbers" && s.Labels["shard"] == strconv.Itoa(i) {
				got = append(got, s.Value)
			}
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf(`seqstore_store_stored_numbers{shard="%d"} = %v, the shard's own gauge %v`, i, got, want)
		}
	}
}

// TestClusterMetricsDeadShard kills one of two shards and pins the cluster
// metrics view's partial answer: both views answer 200; the healthy
// shard's samples are exactly what its own scrape held, value bits
// included; seqstore_shard_scrape_up says which shard was reached; the
// dead shard's JSON entry carries an error instead of metrics. /v1/info,
// which needs every shard's dims, still fails, and the view fails once no
// shard answers.
func TestClusterMetricsDeadShard(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	var (
		mu   sync.Mutex
		last []byte // shard 0's latest /v1/metrics body
	)
	record := func(shard int, h http.Handler) http.Handler {
		if shard != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/metrics" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			mu.Lock()
			last = rec.Body.Bytes()
			mu.Unlock()
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	}
	tc := startCluster(t, full, 2, 1, Options{Timeout: 2 * time.Second}, record)
	if w := tc.get(t, "/v1/aggregate?f=sum"); w.Code != http.StatusOK {
		t.Fatalf("warmup aggregate failed: %d", w.Code)
	}
	tc.servers[1].Close()

	w := tc.get(t, "/v1/metrics?scope=cluster&format=prom")
	if w.Code != http.StatusOK {
		t.Fatalf("cluster prom with a dead shard: status %d: %s", w.Code, w.Body.String())
	}
	m, err := promcheck.ParsePrometheus(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("cluster exposition does not parse: %v", err)
	}
	mu.Lock()
	scraped := last
	mu.Unlock()
	var snap telemetry.Snapshot
	if err := json.Unmarshal(scraped, &snap); err != nil {
		t.Fatal(err)
	}
	var ownText bytes.Buffer
	if err := telemetry.WritePrometheus(&ownText, telemetry.Part{Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
	own, err := promcheck.ParsePrometheus(&ownText)
	if err != nil {
		t.Fatal(err)
	}
	// sampleKey names a sample by family and labels, the shard label aside.
	sampleKey := func(s promcheck.PromSample) string {
		var labels []string
		for k, v := range s.Labels {
			if k != "shard" {
				labels = append(labels, k+"="+v)
			}
		}
		sort.Strings(labels)
		return s.Name + "{" + strings.Join(labels, ",") + "}"
	}
	want := map[string]float64{}
	for _, s := range own.Samples {
		want[sampleKey(s)] = s.Value
	}
	got := map[string]float64{}
	up := map[string]float64{}
	for _, s := range m.Samples {
		switch {
		case s.Name == "seqstore_shard_scrape_up":
			up[s.Labels["shard"]] = s.Value
		case s.Labels["shard"] != "0":
			t.Errorf("sample %s %v comes from a shard that did not answer", s.Name, s.Labels)
		default:
			got[sampleKey(s)] = s.Value
		}
	}
	if len(got) != len(want) {
		t.Errorf("healthy shard contributed %d samples, its own scrape holds %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("%s = %v (present %v), the shard's own scrape holds %v", k, g, ok, v)
		}
	}
	if len(up) != 2 || up["0"] != 1 || up["1"] != 0 {
		t.Errorf("seqstore_shard_scrape_up = %v, want shard 0 up and shard 1 down", up)
	}

	w = tc.get(t, "/v1/metrics?scope=cluster")
	if w.Code != http.StatusOK {
		t.Fatalf("cluster JSON with a dead shard: status %d: %s", w.Code, w.Body.String())
	}
	var body struct {
		Shards []struct {
			Shard   int             `json:"shard"`
			Metrics json.RawMessage `json:"metrics"`
			Error   string          `json:"error"`
		} `json:"shards"`
	}
	decodeBody(t, w, &body)
	if len(body.Shards) != 2 {
		t.Fatalf("cluster JSON has %d shard entries, want 2", len(body.Shards))
	}
	mu.Lock()
	scraped = last
	mu.Unlock()
	var gotBody, wantBody bytes.Buffer
	if err := json.Compact(&gotBody, body.Shards[0].Metrics); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantBody, scraped); err != nil {
		t.Fatal(err)
	}
	if body.Shards[0].Error != "" || !bytes.Equal(gotBody.Bytes(), wantBody.Bytes()) {
		t.Errorf("healthy shard's entry: error %q, metrics differ from its own scrape: %v", body.Shards[0].Error, !bytes.Equal(gotBody.Bytes(), wantBody.Bytes()))
	}
	if body.Shards[1].Error == "" || body.Shards[1].Metrics != nil {
		t.Errorf("dead shard's entry: error %q, metrics %s; want an error and no metrics", body.Shards[1].Error, body.Shards[1].Metrics)
	}

	if w := tc.get(t, "/v1/info"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("/v1/info with a dead shard: status %d, want 503", w.Code)
	}
	tc.servers[0].Close()
	for _, path := range []string{"/v1/metrics?scope=cluster", "/v1/metrics?scope=cluster&format=prom"} {
		w := tc.get(t, path)
		if d := envelope(t, w); w.Code != http.StatusServiceUnavailable || d.Code != api.CodeUnavailable {
			t.Errorf("%s with every shard dead: status %d code %q, want 503 unavailable", path, w.Code, d.Code)
		}
	}
}

// TestProxyPromGolden pins the proxy-scope exposition: the proxy's own
// registry plus the per-shard client gauges, parsed and schema-pinned.
func TestProxyPromGolden(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	tc := startCluster(t, full, 2, 1, Options{SLOObjective: time.Second}, nil)

	if w := tc.get(t, "/v1/aggregate?f=sum"); w.Code != http.StatusOK {
		t.Fatalf("warmup aggregate failed: %d", w.Code)
	}
	w := tc.get(t, "/v1/metrics?format=prom")
	if w.Code != http.StatusOK {
		t.Fatalf("proxy prom status %d: %s", w.Code, w.Body.String())
	}
	m, err := promcheck.ParsePrometheus(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("proxy exposition does not parse: %v", err)
	}
	for _, fam := range []string{"seqstore_shard_healthy", "seqstore_shard_requests_total",
		"seqstore_shard_latency_p99_seconds", "seqstore_slo_attainment_ratio"} {
		if _, ok := m.Types[fam]; !ok {
			t.Fatalf("proxy exposition missing family %s (have %v)", fam, m.Families())
		}
	}
	if vals := m.Get("seqstore_shard_healthy"); len(vals) != 2 {
		t.Fatalf("seqstore_shard_healthy samples %v, want one per shard", vals)
	}
	checkGolden(t, "proxy_prom_schema.golden", promFamilyLines(m))
}

// TestProxySLOHealthz pins the SLO block on the proxy's health endpoint:
// objective and target echo the configuration, attainment covers every
// endpoint, and the burn rate is finite.
func TestProxySLOHealthz(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	tc := startCluster(t, full, 2, 1,
		Options{SLOObjective: time.Second, SLOTarget: 0.95}, nil)

	if w := tc.get(t, "/v1/aggregate?f=sum"); w.Code != http.StatusOK {
		t.Fatalf("warmup aggregate failed: %d", w.Code)
	}
	w := tc.get(t, "/v1/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var body api.HealthzResponse
	decodeBody(t, w, &body)
	if body.Status != "ok" || body.SLO == nil {
		t.Fatalf("healthz: status %q slo %v", body.Status, body.SLO)
	}
	if body.SLO.ObjectiveMs != 1000 || body.SLO.Target != 0.95 {
		t.Fatalf("slo config echoed as %+v", body.SLO)
	}
	found := false
	for _, ep := range body.SLO.Endpoints {
		if ep.Endpoint == "/v1/aggregate" {
			found = true
			if ep.Count < 1 || ep.Attainment < 0 || ep.Attainment > 1 {
				t.Fatalf("agg slo entry: %+v", ep)
			}
			if ep.BurnRate < 0 {
				t.Fatalf("negative burn rate: %+v", ep)
			}
		}
	}
	if !found {
		t.Fatal("no /v1/aggregate entry in the SLO report")
	}
}
