package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/seqerr"
	"seqstore/internal/server"
	"seqstore/internal/store"
	"seqstore/internal/trace"
)

// phoneMatrix builds phone-like test data with a couple of all-zero
// customers so the shard slices exercise the SVDD zero-row flags too.
func phoneMatrix(t *testing.T, n, m int) *linalg.Matrix {
	t.Helper()
	cfg := dataset.DefaultPhoneConfig(n)
	cfg.M = m
	cfg.ZeroFrac = 0
	x := dataset.GeneratePhone(cfg)
	for _, i := range []int{3, n - 1} {
		row := x.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	return x
}

func compressStore(t *testing.T, x *linalg.Matrix) *core.Store {
	t.Helper()
	s, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.10, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordingTransport counts the disk accesses every store-node response
// reports, so tests can pin proxy ledger = Σ shard ledgers exactly. It
// wraps the nodes' handlers, which serve every channel frame, and reads the
// X-Cost-Disk-Accesses header the node's middleware set.
type recordingTransport struct {
	disk atomic.Int64
}

func (rt *recordingTransport) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if v, err := strconv.ParseInt(w.Header().Get(trace.HeaderDiskAccesses), 10, 64); err == nil {
			rt.disk.Add(v)
		}
	})
}

// testNode is a store node on a loopback listener that remembers every
// connection it accepted, so Close kills the node the way a dead process
// dies: httptest.Server.Close forgets a hijacked connection, and with it
// every channel.
type testNode struct {
	*httptest.Server
	mu    sync.Mutex
	conns []net.Conn
}

func startNode(t *testing.T, h http.Handler) *testNode {
	t.Helper()
	n := &testNode{Server: httptest.NewUnstartedServer(h)}
	n.Listener = &trackingListener{Listener: n.Listener, node: n}
	n.Start()
	t.Cleanup(n.Close)
	return n
}

type trackingListener struct {
	net.Listener
	node *testNode
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.node.mu.Lock()
		l.node.conns = append(l.node.conns, c)
		l.node.mu.Unlock()
	}
	return c, err
}

func (n *testNode) Close() {
	n.mu.Lock()
	for _, c := range n.conns {
		c.Close()
	}
	n.conns = nil
	n.mu.Unlock()
	n.Server.Close()
}

// testCluster is an in-process cluster: the full store, row-sliced shard
// stores behind real store nodes, and a proxy routing over them.
type testCluster struct {
	proxy   *Proxy
	topo    *Topology
	servers []*testNode
	rec     *recordingTransport
}

// startCluster slices full into shardCount contiguous row ranges (the
// last one open-ended), serves each slice with a real server.Handler, and
// fronts them with a proxy. wrap, when non-nil, intercepts each shard's
// handler (fault injection).
func startCluster(t *testing.T, full *core.Store, shardCount, workers int, opts Options,
	wrap func(shard int, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	n, _ := full.Dims()
	topo := &Topology{}
	tc := &testCluster{topo: topo, rec: &recordingTransport{}}
	for s := 0; s < shardCount; s++ {
		lo, hi := s*n/shardCount, (s+1)*n/shardCount
		slice, err := full.SliceRows(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = server.NewHandler(slice, nil, server.Options{QueryWorkers: workers})
		if wrap != nil {
			h = wrap(s, h)
		}
		srv := startNode(t, tc.rec.wrap(h))
		tc.servers = append(tc.servers, srv)
		shard := Shard{Addr: srv.URL, Lo: lo, Hi: hi}
		if s == shardCount-1 {
			shard.Hi = -1
		}
		topo.Shards = append(topo.Shards, shard)
	}
	tc.proxy = NewWithTopology(topo, opts)
	return tc
}

// get issues a GET — except for the shorthand "/v1/aggregate?f=sum&rows=0:8",
// whose query parameters it POSTs as the JSON body.
func (tc *testCluster) get(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	if u, err := url.Parse(path); err == nil && u.Path == "/v1/aggregate" {
		q := u.Query()
		raw, _ := json.Marshal(api.AggregateRequest{F: q.Get("f"), Rows: q.Get("rows"), Cols: q.Get("cols")})
		return tc.post(t, u.Path, string(raw))
	}
	w := httptest.NewRecorder()
	tc.proxy.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func (tc *testCluster) post(t *testing.T, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	tc.proxy.ServeHTTP(w, req)
	return w
}

func decodeBody(t *testing.T, w *httptest.ResponseRecorder, out interface{}) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatalf("undecodable body %q: %v", w.Body.String(), err)
	}
}

// envelope decodes an error response and returns its detail.
func envelope(t *testing.T, w *httptest.ResponseRecorder) api.ErrorDetail {
	t.Helper()
	var env api.ErrorEnvelope
	decodeBody(t, w, &env)
	if env.Error.Code == "" {
		t.Fatalf("response %d has no error envelope: %s", w.Code, w.Body.String())
	}
	return env.Error
}

// --- The tentpole invariant: scatter/gather ≡ single node -------------------

// TestClusterAggregatesBitIdentical is the distributed tier's core claim:
// for every aggregate, every selection shape, shard counts {1, 2, 4} and
// per-shard worker counts {1, 3, 8}, the proxy's scattered/merged value is
// bit-identical to a single node evaluating the unsplit selection — and
// the proxy's X-Cost-Disk-Accesses header equals the sum of the disk
// accesses the store nodes reported.
func TestClusterAggregatesBitIdentical(t *testing.T) {
	x := phoneMatrix(t, 80, 60)
	full := compressStore(t, x)
	n, m := full.Dims()

	sels := []struct{ rows, cols string }{
		{"", ""},
		{"3,9:40,77", "0:13,40"},
		{"5,5,10:20", ""},
		{"0:80", "7"},
	}
	aggs := []string{"sum", "avg", "stddev", "min", "max", "count"}

	// Reference: the unsplit store, serial evaluation.
	want := make(map[string]uint64)
	for _, sel := range sels {
		rows, err := query.ParseIndexSpec(sel.rows, n)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := query.ParseIndexSpec(sel.cols, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range aggs {
			agg, err := query.ParseAggregate(f)
			if err != nil {
				t.Fatal(err)
			}
			v, err := query.EvaluateOpts(full, agg, query.Selection{Rows: rows, Cols: cols},
				query.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want[f+"|"+sel.rows+"|"+sel.cols] = math.Float64bits(v)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				tc := startCluster(t, full, shards, workers, Options{}, nil)
				var batch api.BatchAggregateRequest
				var batchKeys []string
				for _, sel := range sels {
					for _, f := range aggs {
						key := f + "|" + sel.rows + "|" + sel.cols
						tc.rec.disk.Store(0)
						w := tc.get(t, "/v1/aggregate?f="+f+
							"&rows="+url.QueryEscape(sel.rows)+"&cols="+url.QueryEscape(sel.cols))
						if w.Code != http.StatusOK {
							t.Fatalf("%s: status %d: %s", key, w.Code, w.Body.String())
						}
						var resp api.AggregateResponse
						decodeBody(t, w, &resp)
						got := math.Float64bits(api.NumValue(resp.Value, resp.Nonfinite))
						if got != want[key] {
							t.Errorf("%s: proxy %x != single-node %x", key, got, want[key])
						}
						// Ledger across the hop: the proxy's disk-access header
						// must be exactly the sum of what the shards reported.
						hdr, err := strconv.ParseInt(w.Header().Get(trace.HeaderDiskAccesses), 10, 64)
						if err != nil {
							t.Fatalf("%s: bad cost header: %v", key, err)
						}
						if hdr != tc.rec.disk.Load() {
							t.Errorf("%s: proxy ledger %d != Σ shard ledgers %d",
								key, hdr, tc.rec.disk.Load())
						}
						batch.Queries = append(batch.Queries,
							api.AggregateRequest{F: f, Rows: sel.rows, Cols: sel.cols})
						batchKeys = append(batchKeys, key)
					}
				}
				// The whole grid again as one scattered batch, still
				// bit-identical per item.
				raw, _ := json.Marshal(batch)
				w := tc.post(t, "/v1/aggregate/batch", string(raw))
				if w.Code != http.StatusOK {
					t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
				}
				var bresp api.BatchAggregateResponse
				decodeBody(t, w, &bresp)
				if bresp.Errors || len(bresp.Items) != len(batchKeys) {
					t.Fatalf("batch errors=%v items=%d want %d", bresp.Errors, len(bresp.Items), len(batchKeys))
				}
				for k, item := range bresp.Items {
					got := math.Float64bits(api.NumValue(item.Value, item.Nonfinite))
					if got != want[batchKeys[k]] {
						t.Errorf("batch %s: proxy %x != single-node %x", batchKeys[k], got, want[batchKeys[k]])
					}
				}
			})
		}
	}
}

// TestClusterPointReads pins routed /v1/cell, /v1/row, /v1/rows and
// /v1/cells: values bit-identical to the unsplit store, indices global on
// the wire, request order preserved across the shard fan-out.
func TestClusterPointReads(t *testing.T) {
	x := phoneMatrix(t, 64, 20)
	full := compressStore(t, x)
	n, m := full.Dims()
	tc := startCluster(t, full, 4, 1, Options{}, nil)

	for _, i := range []int{0, 15, 16, 47, 48, n - 1} {
		j := (i * 7) % m
		w := tc.get(t, fmt.Sprintf("/v1/cell?i=%d&j=%d", i, j))
		if w.Code != http.StatusOK {
			t.Fatalf("cell %d:%d status %d: %s", i, j, w.Code, w.Body.String())
		}
		var cell api.CellResponse
		decodeBody(t, w, &cell)
		if cell.I != i || cell.J != j {
			t.Fatalf("cell echoed (%d,%d), want global (%d,%d)", cell.I, cell.J, i, j)
		}
		wantV, err := full.Cell(i, j)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(api.NumValue(cell.Value, cell.Nonfinite)) != math.Float64bits(wantV) {
			t.Errorf("cell (%d,%d) differs from unsplit store", i, j)
		}
	}

	// Batched cells in deliberately shard-interleaved order, with a dup.
	coords := [][2]int{{50, 1}, {2, 3}, {17, 0}, {2, 3}, {63, 19}, {33, 5}}
	var spec []string
	for _, c := range coords {
		spec = append(spec, fmt.Sprintf("%d:%d", c[0], c[1]))
	}
	w := tc.get(t, "/v1/cells?at="+strings.Join(spec, ","))
	if w.Code != http.StatusOK {
		t.Fatalf("cells status %d: %s", w.Code, w.Body.String())
	}
	var cells api.CellsResponse
	decodeBody(t, w, &cells)
	if cells.Count != len(coords) {
		t.Fatalf("cells count %d, want %d", cells.Count, len(coords))
	}
	for k, c := range coords {
		got := cells.Cells[k]
		if got.I != c[0] || got.J != c[1] {
			t.Fatalf("cells[%d] = (%d,%d), want (%d,%d) (order must survive the fan-out)",
				k, got.I, got.J, c[0], c[1])
		}
		wantV, _ := full.Cell(c[0], c[1])
		if math.Float64bits(api.NumValue(got.Value, got.Nonfinite)) != math.Float64bits(wantV) {
			t.Errorf("cells[%d] value differs", k)
		}
	}

	// Batched rows spanning every shard, order preserved, values exact.
	w = tc.get(t, "/v1/rows?i="+url.QueryEscape("60,0:4,30"))
	if w.Code != http.StatusOK {
		t.Fatalf("rows status %d: %s", w.Code, w.Body.String())
	}
	var rows api.RowsResponse
	decodeBody(t, w, &rows)
	wantOrder := []int{60, 0, 1, 2, 3, 30}
	if rows.Count != len(wantOrder) {
		t.Fatalf("rows count %d, want %d", rows.Count, len(wantOrder))
	}
	for k, i := range wantOrder {
		if rows.Rows[k].I != i {
			t.Fatalf("rows[%d].i = %d, want %d", k, rows.Rows[k].I, i)
		}
		wantRow, err := full.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range rows.Rows[k].Values {
			if math.Float64bits(api.NumValue(v, "")) != math.Float64bits(wantRow[j]) {
				t.Fatalf("rows[%d] col %d differs", k, j)
			}
		}
	}

	// Out-of-range rows are typed 400s at the proxy (no open shard here is
	// consulted for j; the column bound comes from the owning shard).
	w = tc.get(t, "/v1/cell?i=-1&j=0")
	if d := envelope(t, w); w.Code != http.StatusBadRequest || d.Code != api.CodeOutOfRange {
		t.Fatalf("negative row: status %d code %q", w.Code, d.Code)
	}
	// Label addressing is a store-node feature; the proxy refuses clearly.
	w = tc.get(t, "/v1/cell?row=a&col=b")
	if d := envelope(t, w); w.Code != http.StatusBadRequest || d.Code != api.CodeBadRequest {
		t.Fatalf("label cell: status %d code %q", w.Code, d.Code)
	}
}

// --- Fault injection ---------------------------------------------------------

// TestClusterDeadShard kills one store node and pins the partial-failure
// contract: scattered aggregates fail with a typed 503 naming the dead
// shard, point reads to live shards keep answering, and nothing hangs.
func TestClusterDeadShard(t *testing.T) {
	x := phoneMatrix(t, 40, 16)
	full := compressStore(t, x)
	tc := startCluster(t, full, 2, 1, Options{Timeout: 2 * time.Second}, nil)
	// Warm the dims cache while both shards are alive, then kill shard 1.
	if w := tc.get(t, "/v1/aggregate?f=sum"); w.Code != http.StatusOK {
		t.Fatalf("warmup failed: %d %s", w.Code, w.Body.String())
	}
	tc.servers[1].Close()

	start := time.Now()
	w := tc.get(t, "/v1/aggregate?f=sum")
	elapsed := time.Since(start)
	d := envelope(t, w)
	if w.Code != http.StatusServiceUnavailable || d.Code != api.CodeUnavailable {
		t.Fatalf("dead shard: status %d code %q body %s", w.Code, d.Code, w.Body.String())
	}
	if len(d.Shards) != 1 || d.Shards[0].Shard != 1 {
		t.Fatalf("error detail should name shard 1, got %+v", d.Shards)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("dead-shard failure took %v; must resolve within the shard timeout", elapsed)
	}

	// The batch endpoint fails the same way (one dead shard → 503, not a
	// silent partial result).
	w = tc.post(t, "/v1/aggregate/batch", `{"queries":[{"f":"sum"}]}`)
	if d := envelope(t, w); w.Code != http.StatusServiceUnavailable || d.Code != api.CodeUnavailable {
		t.Fatalf("batch over dead shard: status %d code %q", w.Code, d.Code)
	}

	// Rows owned by the live shard still serve.
	w = tc.get(t, "/v1/cell?i=1&j=1")
	if w.Code != http.StatusOK {
		t.Fatalf("live-shard read failed: %d %s", w.Code, w.Body.String())
	}
	// Rows owned by the dead shard are a typed 503 naming it.
	w = tc.get(t, "/v1/cell?i=30&j=1")
	if d := envelope(t, w); w.Code != http.StatusServiceUnavailable || len(d.Shards) != 1 {
		t.Fatalf("dead-shard read: status %d detail %+v", w.Code, d.Shards)
	}

	// Health degrades but keeps answering.
	w = tc.get(t, "/v1/healthz")
	var hz api.HealthzResponse
	decodeBody(t, w, &hz)
	if w.Code != http.StatusOK || hz.Status != "degraded" || hz.Shards[1].Healthy {
		t.Fatalf("healthz after kill: %d %+v", w.Code, hz)
	}
}

// TestClusterStalledShard stalls (rather than kills) a store node
// mid-scatter: the per-shard timeout must convert the hang into a typed
// 503 within the deadline.
func TestClusterStalledShard(t *testing.T) {
	x := phoneMatrix(t, 40, 16)
	full := compressStore(t, x)
	stall := func(shard int, h http.Handler) http.Handler {
		if shard != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/aggregate/batch" { // every aggregate's hop
				// Drain the body so the server's disconnect detection runs
				// and the proxy's cancel unblocks the stall promptly.
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
					return
				case <-time.After(10 * time.Second):
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	tc := startCluster(t, full, 2, 1, Options{Timeout: 300 * time.Millisecond}, stall)

	start := time.Now()
	w := tc.get(t, "/v1/aggregate?f=avg")
	elapsed := time.Since(start)
	d := envelope(t, w)
	if w.Code != http.StatusServiceUnavailable || d.Code != api.CodeUnavailable {
		t.Fatalf("stalled shard: status %d code %q", w.Code, d.Code)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stalled shard took %v; the timeout must bound it", elapsed)
	}
}

// corruptShard is a store node's store whose every read fails as a damaged
// file does.
type corruptShard struct{ store.Store }

var errDamaged = seqerr.Corrupt("/data/shard1.sqz", 3, 12345, "page checksum mismatch")

func (corruptShard) Cell(int, int) (float64, error)        { return 0, errDamaged }
func (corruptShard) Row(int, []float64) ([]float64, error) { return nil, errDamaged }

// TestClusterCorruptShardEnvelopes pins what a corrupt store node's refusal
// looks like through the proxy. A lone aggregate, sent as one batch item
// per touched shard, keeps the node's 503, code and message and names the
// shard; its batch item carries the same status, code and message. A read
// of one element fails as its one exchange, lone or batched alike; a read
// spanning shards fails as a scatter that names the shard, with the same
// code and message.
func TestClusterCorruptShardEnvelopes(t *testing.T) {
	full := compressStore(t, phoneMatrix(t, 40, 16))
	healthy, err := full.SliceRows(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	damaged, err := full.SliceRows(20, 40)
	if err != nil {
		t.Fatal(err)
	}
	s0 := httptest.NewServer(server.NewHandler(healthy, nil, server.Options{}))
	defer s0.Close()
	s1 := httptest.NewServer(server.NewHandler(corruptShard{damaged}, nil, server.Options{}))
	defer s1.Close()
	tc := &testCluster{proxy: NewWithTopology(&Topology{Shards: []Shard{
		{Addr: s0.URL, Lo: 0, Hi: 20}, {Addr: s1.URL, Lo: 20, Hi: -1},
	}}, Options{})}

	// refusal checks the envelope every shape shares: the node's status,
	// code and message, and — for a scatter — shard 1 named with its verdict.
	refusal := func(what string, w *httptest.ResponseRecorder, scatter bool) api.ErrorDetail {
		t.Helper()
		d := envelope(t, w)
		if w.Code != http.StatusServiceUnavailable || d.Code != api.CodeCorrupt || !strings.Contains(d.Message, "page checksum mismatch") {
			t.Fatalf("%s: %d %s", what, w.Code, w.Body.String())
		}
		named := len(d.Shards) == 1 && d.Shards[0].Shard == 1 && d.Shards[0].Addr == s1.URL &&
			d.Shards[0].Message == "corrupt (HTTP 503): "+d.Message
		if scatter != named || (!scatter && len(d.Shards) != 0) {
			t.Errorf("%s: shard detail %+v, want shard 1 named: %v", what, d.Shards, scatter)
		}
		return d
	}

	agg := refusal("lone aggregate", tc.get(t, "/v1/aggregate?f=sum&rows=10:30"), true)
	w := tc.post(t, "/v1/aggregate/batch", `{"queries":[{"f":"sum","rows":"10:30"},{"f":"sum","rows":"0:10"}]}`)
	var batch api.BatchAggregateResponse
	decodeBody(t, w, &batch)
	if it := batch.Items[0]; w.Code != http.StatusOK || !batch.Errors || it.Status != http.StatusServiceUnavailable ||
		it.Code != api.CodeCorrupt || it.Error != agg.Message || batch.Items[1].Status != http.StatusOK {
		t.Errorf("batch: %d %s", w.Code, w.Body.String())
	}

	for _, pair := range [][2]string{{"/v1/cell?i=25&j=3", "/v1/cells?at=25:3"}, {"/v1/row?i=25", "/v1/rows?i=25"}} {
		lone := refusal(pair[0], tc.get(t, pair[0]), false)
		if one := refusal(pair[1], tc.get(t, pair[1]), false); one.Message != lone.Message {
			t.Errorf("%s fails with %q, its batch of one with %q", pair[0], lone.Message, one.Message)
		}
	}
	for _, path := range []string{"/v1/cells?at=5:3,25:3", "/v1/rows?i=5,25"} {
		refusal(path, tc.get(t, path), true)
	}
}

// TestClusterHedgedRetry stalls only the FIRST point read against one
// shard: the hedge fires after HedgeAfter, the second attempt answers
// fast, and the client sees a prompt 200 — the recovery path for
// idempotent reads on a transiently slow shard.
func TestClusterHedgedRetry(t *testing.T) {
	x := phoneMatrix(t, 40, 16)
	full := compressStore(t, x)
	var calls atomic.Int32
	slowOnce := func(shard int, h http.Handler) http.Handler {
		if shard != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cells" && calls.Add(1) == 1 { // a lone cell's hop
				select {
				case <-r.Context().Done():
					return
				case <-time.After(5 * time.Second):
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	tc := startCluster(t, full, 2, 1,
		Options{Timeout: 10 * time.Second, HedgeAfter: 100 * time.Millisecond}, slowOnce)

	start := time.Now()
	w := tc.get(t, "/v1/cell?i=2&j=3")
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("hedged read failed: %d %s", w.Code, w.Body.String())
	}
	var cell api.CellResponse
	decodeBody(t, w, &cell)
	wantV, _ := full.Cell(2, 3)
	if math.Float64bits(api.NumValue(cell.Value, cell.Nonfinite)) != math.Float64bits(wantV) {
		t.Fatal("hedged read returned a wrong value")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("hedged read took %v; the hedge should have recovered it promptly", elapsed)
	}
	if got := tc.proxy.shardsNow()[0].hedges.Load(); got < 1 {
		t.Fatalf("hedges counter = %d, want ≥ 1", got)
	}
}

// TestClusterLoneRequestsAreBatchesOfOne pins what a lone read or aggregate
// costs behind the proxy now that it travels as a batch of one: exactly one
// shard request per touched shard (per-shard requests_total deltas on the
// proxy's /v1/metrics), a hedged lone read with exactly one winner span, and
// a label-addressed cell refused at the front door with its message.
func TestClusterLoneRequestsAreBatchesOfOne(t *testing.T) {
	x := phoneMatrix(t, 40, 16)
	full := compressStore(t, x)
	tc := startCluster(t, full, 2, 1, Options{}, nil)
	requests := func() [2]int64 {
		t.Helper()
		var body struct {
			Shards []struct {
				Requests int64 `json:"requests_total"`
			} `json:"shards"`
		}
		decodeBody(t, tc.get(t, "/v1/metrics"), &body)
		return [2]int64{body.Shards[0].Requests, body.Shards[1].Requests}
	}
	// Warm the dims cache, which the first aggregate fills from every shard.
	if w := tc.get(t, "/v1/aggregate?f=sum"); w.Code != http.StatusOK {
		t.Fatalf("warmup: %d %s", w.Code, w.Body.String())
	}
	for _, c := range []struct {
		method, path, body string
		want               [2]int64
	}{
		{"GET", "/v1/cell?i=3&j=4", "", [2]int64{1, 0}},
		{"GET", "/v1/cell?i=33&j=4", "", [2]int64{0, 1}},
		{"GET", "/v1/row?i=25", "", [2]int64{0, 1}},
		{"POST", "/v1/aggregate", `{"f":"stddev","rows":"5:35","cols":"0:7"}`, [2]int64{1, 1}},
		{"POST", "/v1/aggregate", `{"f":"min","rows":"0:10"}`, [2]int64{1, 0}},
		{"POST", "/v1/aggregate", `{"f":"avg","rows":"30,21","explain":true}`, [2]int64{0, 1}},
		{"POST", "/v1/aggregate", `{"f":"count","rows":"5:35"}`, [2]int64{0, 0}},
	} {
		before := requests()
		var w *httptest.ResponseRecorder
		if c.method == "GET" {
			w = tc.get(t, c.path)
		} else {
			w = tc.post(t, c.path, c.body)
		}
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", c.path, c.body, w.Code, w.Body.String())
		}
		after := requests()
		if got := [2]int64{after[0] - before[0], after[1] - before[1]}; got != c.want {
			t.Errorf("%s %s: shard requests %v, want %v", c.path, c.body, got, c.want)
		}
	}

	// A label-addressed cell never leaves the proxy.
	before := requests()
	w := tc.get(t, "/v1/cell?row=a&col=b")
	d := envelope(t, w)
	if w.Code != http.StatusBadRequest || d.Code != api.CodeBadRequest ||
		d.Message != "the proxy is index-addressed: use integer i and j (label maps live on the store nodes)" {
		t.Fatalf("label cell: %d %+v", w.Code, d)
	}
	if after := requests(); after != before {
		t.Errorf("label cell reached the shards: requests %v → %v", before, after)
	}

	// A lone read hedged against a stalled shard: one winner, whatever the
	// loser does after.
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	stall := func(shard int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if shard == 0 && r.URL.Path == "/v1/cells" && calls.Add(1) == 1 {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	hc := startCluster(t, full, 2, 1, Options{Timeout: 10 * time.Second, HedgeAfter: 30 * time.Millisecond}, stall)
	req := httptest.NewRequest(http.MethodGet, "/v1/cell?i=2&j=3", nil)
	req.Header.Set(trace.HeaderRequestID, "lone-hedged")
	w = httptest.NewRecorder()
	hc.proxy.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("hedged lone read: %d %s", w.Code, w.Body.String())
	}
	winners := 0
	for _, tr := range ringTraces(t, hc) {
		if tr.RequestID != "lone-hedged" {
			continue
		}
		for _, sp := range tr.Spans {
			if out, _ := spanAttr(sp, "outcome"); out == "winner" {
				winners++
			}
		}
	}
	if winners != 1 || hc.proxy.shardsNow()[0].hedges.Load() != 1 {
		t.Fatalf("hedged lone read: %d winner spans, %d hedges; want 1 and 1", winners, hc.proxy.shardsNow()[0].hedges.Load())
	}
}

// --- Writes through the proxy ------------------------------------------------

// TestClusterBulkAppend routes /v1/bulk to the open-ended shard, re-maps
// the assigned rows to global indices, and the appended rows immediately
// serve — reads and aggregates — through the proxy.
func TestClusterBulkAppend(t *testing.T) {
	x := phoneMatrix(t, 40, 16)
	full := compressStore(t, x)
	n, m := full.Dims()
	lo := n / 2
	closedSlice, err := full.SliceRows(0, lo)
	if err != nil {
		t.Fatal(err)
	}
	openSlice, err := full.SliceRows(lo, n)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := ingest.Open(openSlice, nil, filepath.Join(t.TempDir(), "shard1.wal"), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	s0 := startNode(t, server.NewHandler(closedSlice, nil, server.Options{}))
	s1 := startNode(t, server.NewHandler(tiered, nil, server.Options{}))
	topo := &Topology{Shards: []Shard{
		{Addr: s0.URL, Lo: 0, Hi: lo},
		{Addr: s1.URL, Lo: lo, Hi: -1},
	}}
	tc := &testCluster{topo: topo, proxy: NewWithTopology(topo, Options{})}

	doc := func(seed float64) string {
		vals := make([]string, m)
		for j := range vals {
			vals[j] = fmt.Sprintf("%g", seed+float64(j)/3)
		}
		return `{"values":[` + strings.Join(vals, ",") + `]}`
	}
	w := tc.post(t, "/v1/bulk", doc(100)+"\n"+doc(200)+"\n")
	if w.Code != http.StatusOK {
		t.Fatalf("bulk status %d: %s", w.Code, w.Body.String())
	}
	var bulk api.BulkResponse
	decodeBody(t, w, &bulk)
	if bulk.Errors || len(bulk.Items) != 2 {
		t.Fatalf("bulk response: %+v", bulk)
	}
	for k, item := range bulk.Items {
		if item.Create.Status != http.StatusCreated || item.Create.Row != n+k {
			t.Fatalf("item %d: status %d row %d, want 201 row %d (global)",
				k, item.Create.Status, item.Create.Row, n+k)
		}
	}

	// The appended row serves exactly through the proxy (hot segment).
	w = tc.get(t, fmt.Sprintf("/v1/cell?i=%d&j=4", n))
	if w.Code != http.StatusOK {
		t.Fatalf("appended cell: %d %s", w.Code, w.Body.String())
	}
	var cell api.CellResponse
	decodeBody(t, w, &cell)
	if got := api.NumValue(cell.Value, cell.Nonfinite); got != 100+4.0/3 {
		t.Fatalf("appended cell = %v, want %v", got, 100+4.0/3)
	}

	// Aggregates see the appended rows after the dims cache invalidation:
	// proxy result over the new row == the owning node evaluating locally.
	wantV, err := query.EvaluateOpts(tiered, query.Sum,
		query.Selection{Rows: []int{n - lo}, Cols: query.All(m)}, query.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w = tc.get(t, fmt.Sprintf("/v1/aggregate?f=sum&rows=%d", n))
	if w.Code != http.StatusOK {
		t.Fatalf("aggregate over appended row: %d %s", w.Code, w.Body.String())
	}
	var resp api.AggregateResponse
	decodeBody(t, w, &resp)
	if math.Float64bits(api.NumValue(resp.Value, resp.Nonfinite)) != math.Float64bits(wantV) {
		t.Fatal("aggregate over appended row differs from the owning node")
	}

	// A topology with no open-ended range cannot absorb appends: typed 403.
	closedTopo := &Topology{Shards: []Shard{{Addr: s0.URL, Lo: 0, Hi: lo}}}
	p2 := NewWithTopology(closedTopo, Options{})
	w2 := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/bulk", strings.NewReader(doc(1)))
	p2.ServeHTTP(w2, req)
	var env api.ErrorEnvelope
	if err := json.Unmarshal(w2.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if w2.Code != http.StatusForbidden || env.Error.Code != api.CodeNotWritable {
		t.Fatalf("closed topology bulk: status %d code %q", w2.Code, env.Error.Code)
	}
}

// --- Composition endpoints ---------------------------------------------------

// TestClusterInfoAndMetrics pins the composed /v1/info (global dims,
// summed stored numbers, the shard map) and the per-shard gauges on
// /v1/metrics.
func TestClusterInfoAndMetrics(t *testing.T) {
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	n, m := full.Dims()
	tc := startCluster(t, full, 3, 1, Options{}, nil)

	w := tc.get(t, "/v1/info")
	if w.Code != http.StatusOK {
		t.Fatalf("info status %d: %s", w.Code, w.Body.String())
	}
	var info api.InfoResponse
	decodeBody(t, w, &info)
	if info.Rows != n || info.Cols != m {
		t.Fatalf("info dims %dx%d, want %dx%d", info.Rows, info.Cols, n, m)
	}
	if len(info.Shards) != 3 {
		t.Fatalf("info shards %d, want 3", len(info.Shards))
	}
	if info.Shards[2].Hi != -1 {
		t.Fatal("last shard should be open-ended in the composed info")
	}
	var rows int
	for _, sh := range info.Shards {
		rows += sh.Rows
	}
	if rows != n {
		t.Fatalf("shard rows sum to %d, want %d", rows, n)
	}

	// Drive a request, then check the per-shard gauge block.
	if w := tc.get(t, "/v1/aggregate?f=sum"); w.Code != http.StatusOK {
		t.Fatal("aggregate for metrics warmup failed")
	}
	w = tc.get(t, "/v1/metrics")
	var body struct {
		Shards []struct {
			Shard    int     `json:"shard"`
			Healthy  bool    `json:"healthy"`
			Requests int64   `json:"requests_total"`
			Hedges   int64   `json:"hedges_total"`
			P99Ms    float64 `json:"p99_ms"`
		} `json:"shards"`
	}
	decodeBody(t, w, &body)
	if len(body.Shards) != 3 {
		t.Fatalf("metrics shards %d, want 3", len(body.Shards))
	}
	for s, sh := range body.Shards {
		if !sh.Healthy || sh.Requests == 0 {
			t.Fatalf("shard %d gauges: %+v (want healthy with traffic)", s, sh)
		}
	}
}

// --- Topology mechanics ------------------------------------------------------

func TestTopologyValidate(t *testing.T) {
	bad := []Topology{
		{},
		{Shards: []Shard{{Addr: "http://a", Lo: 1, Hi: 4}}},                                    // gap at 0
		{Shards: []Shard{{Addr: "http://a", Lo: 0, Hi: 4}, {Addr: "http://b", Lo: 5, Hi: 9}}},  // gap
		{Shards: []Shard{{Addr: "http://a", Lo: 0, Hi: 4}, {Addr: "http://b", Lo: 3, Hi: 9}}},  // overlap
		{Shards: []Shard{{Addr: "http://a", Lo: 0, Hi: -1}, {Addr: "http://b", Lo: 4, Hi: 9}}}, // open not last
		{Shards: []Shard{{Addr: "http://a", Lo: 0, Hi: 0}}},                                    // empty range
		{Shards: []Shard{{Addr: "", Lo: 0, Hi: 4}}},                                            // no addr
		{Shards: []Shard{{Addr: "https://a:8080", Lo: 0, Hi: -1}}},                             // other scheme
		{Shards: []Shard{{Addr: "a:8080", Lo: 0, Hi: -1}}},                                     // no scheme
		{Shards: []Shard{{Addr: "http://a:8080/v1", Lo: 0, Hi: -1}}},                           // a path
		{Shards: []Shard{{Addr: "http://a:8080/", Lo: 0, Hi: -1}}},                             // a bare slash
		{Shards: []Shard{{Addr: "http://a:8080?x=1", Lo: 0, Hi: -1}}},                          // a query
		{Shards: []Shard{{Addr: "http://a:port", Lo: 0, Hi: -1}}},                              // no port number
		{Shards: []Shard{{Addr: "http://:8080", Lo: 0, Hi: -1}}},                               // no host
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("bad topology %d validated", i)
		}
	}
	good := Topology{Shards: []Shard{
		{Addr: "http://a", Lo: 0, Hi: 4},
		{Addr: "http://b", Lo: 4, Hi: -1},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct{ row, shard int }{
		{0, 0}, {3, 0}, {4, 1}, {1000, 1}, {-1, -1},
	} {
		if got := good.Locate(tt.row); got != tt.shard {
			t.Errorf("Locate(%d) = %d, want %d", tt.row, got, tt.shard)
		}
	}
	if good.OpenShard() != 1 {
		t.Error("OpenShard should find the trailing open range")
	}
}

// TestProxyReloadFile pins SIGHUP semantics: the topology file re-reads
// and swaps atomically; a broken file keeps the old topology serving.
func TestProxyReloadFile(t *testing.T) {
	x := phoneMatrix(t, 40, 16)
	full := compressStore(t, x)
	srv := httptest.NewServer(server.NewHandler(full, nil, server.Options{}))
	defer srv.Close()

	dir := t.TempDir()
	path := filepath.Join(dir, "topology.json")
	write := func(s string) {
		t.Helper()
		if err := writeFile(path, s); err != nil {
			t.Fatal(err)
		}
	}
	write(fmt.Sprintf(`{"shards": [{"addr": %q, "lo": 0, "hi": -1}]}`, srv.URL))
	p, err := New(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if topo, _ := p.view(); len(topo.Shards) != 1 {
		t.Fatal("initial topology should have 1 shard")
	}
	// Valid rewrite: swap in a 2-shard map.
	write(fmt.Sprintf(`{"shards": [{"addr": %q, "lo": 0, "hi": 16}, {"addr": %q, "lo": 16, "hi": -1}]}`,
		srv.URL, srv.URL))
	if err := p.ReloadFile(); err != nil {
		t.Fatal(err)
	}
	if topo, _ := p.view(); len(topo.Shards) != 2 {
		t.Fatal("reload did not swap the topology")
	}
	// Broken rewrite: reload fails, the 2-shard map keeps serving.
	write(`{"shards": [{"addr": "http://x", "lo": 5, "hi": 2}]}`)
	if err := p.ReloadFile(); err == nil {
		t.Fatal("invalid topology file should fail to reload")
	}
	if topo, _ := p.view(); len(topo.Shards) != 2 {
		t.Fatal("failed reload must keep the previous topology")
	}
}

// TestRenderSpec pins the fragment re-rendering round trip: parse ∘
// render is the identity on the multiset, order included.
func TestRenderSpec(t *testing.T) {
	cases := [][]int{
		{0},
		{0, 1, 2, 3},
		{5, 5, 5},
		{3, 9, 10, 11, 40, 2, 2, 0, 1},
		{7, 6, 5},
	}
	for _, idx := range cases {
		spec := renderSpec(idx)
		back, err := query.ParseIndexSpec(spec, 1000)
		if err != nil {
			t.Fatalf("render %v -> %q failed to parse: %v", idx, spec, err)
		}
		if len(back) != len(idx) {
			t.Fatalf("round trip of %v via %q: %v", idx, spec, back)
		}
		for k := range idx {
			if back[k] != idx[k] {
				t.Fatalf("round trip of %v via %q: %v", idx, spec, back)
			}
		}
	}
}

// writeFile is a tiny helper for the reload tests.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
