package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/faultio"
	"seqstore/internal/ingest"
	"seqstore/internal/server"
)

// faultDialer opens every shard channel over a faultio.Conn, armed by arm
// when it is set, and keeps the connections for the test to inspect.
type faultDialer struct {
	mu    sync.Mutex
	conns []*faultio.Conn
	arm   func(c *faultio.Conn, host string)
}

func (d *faultDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	raw, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c := faultio.NewConn(raw)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.arm != nil {
		d.arm(c, addr)
	}
	d.conns = append(d.conns, c)
	return c, nil
}

func (d *faultDialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

func (d *faultDialer) last() *faultio.Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[len(d.conns)-1]
}

// dialThrough routes every shard client of tc's proxy through d.
func dialThrough(tc *testCluster, d *faultDialer) {
	for _, c := range tc.proxy.shardsNow() {
		c.pool.dial = d.dial
	}
}

// frameCounter counts the requests a node's handler serves, by path.
type frameCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (fc *frameCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fc.mu.Lock()
		if fc.n == nil {
			fc.n = map[string]int{}
		}
		fc.n[r.URL.Path]++
		fc.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (fc *frameCounter) count(path string) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.n[path]
}

// unavailable503 checks a typed 503 naming shard 0 at addr.
func unavailable503(t *testing.T, what string, w *httptest.ResponseRecorder, addr string) {
	t.Helper()
	d := envelope(t, w)
	if w.Code != http.StatusServiceUnavailable || d.Code != api.CodeUnavailable ||
		len(d.Shards) != 1 || d.Shards[0].Shard != 0 || d.Shards[0].Addr != addr {
		t.Fatalf("%s: %d %s, want a 503 naming shard 0 (%s)", what, w.Code, w.Body.String(), addr)
	}
}

// TestChannelFaults pins what each network fault under a channel becomes:
// a typed 503 naming the shard, within the shard timeout. A stalled read
// is cut by the request's deadline; a reset mid-frame and a truncated
// answer fail their exchange at once. A channel that failed is closed and
// never handed out again.
func TestChannelFaults(t *testing.T) {
	full := compressStore(t, phoneMatrix(t, 40, 16))
	const timeout = 300 * time.Millisecond
	for _, tt := range []struct {
		name string
		// arm arms the fault on the first channel's connection; reused
		// sends the failing request on a channel an earlier request
		// opened, instead of a fresh one.
		arm    func(c *faultio.Conn, host string)
		reused bool
	}{
		{"delay", func(c *faultio.Conn, _ string) { c.Delay(10 * time.Second) }, false},
		{"reset mid-frame", func(c *faultio.Conn, host string) {
			c.ResetAfterWrite(int64(len(upgradeRequest(host))) + 10)
		}, false},
		{"truncated answer", func(c *faultio.Conn, _ string) { c.TruncateRead(6) }, true},
		{"delay on a reused channel", func(c *faultio.Conn, _ string) { c.Delay(10 * time.Second) }, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := startCluster(t, full, 1, 1, Options{Timeout: timeout}, nil)
			d := &faultDialer{}
			dialThrough(tc, d)
			if tt.reused {
				if w := tc.get(t, "/v1/cell?i=1&j=1"); w.Code != http.StatusOK {
					t.Fatalf("warm-up: %d %s", w.Code, w.Body.String())
				}
				tt.arm(d.last(), "")
			} else {
				d.arm = tt.arm
			}
			start := time.Now()
			w := tc.get(t, "/v1/cell?i=2&j=3")
			if elapsed := time.Since(start); elapsed > timeout+time.Second {
				t.Errorf("fault took %v; the shard timeout is %v", elapsed, timeout)
			}
			unavailable503(t, tt.name, w, tc.topo.Shards[0].Addr)
			pool := tc.proxy.shardsNow()[0].pool
			pool.mu.Lock()
			if len(pool.idle) != 0 {
				t.Errorf("%d idle channels after the fault, want 0 (a failed channel is never reused)", len(pool.idle))
			}
			pool.mu.Unlock()

			// The failed channel is gone: the next request opens a new one.
			d.mu.Lock()
			d.arm = nil
			d.mu.Unlock()
			dials := d.dials()
			if w := tc.get(t, "/v1/cell?i=2&j=3"); w.Code != http.StatusOK {
				t.Fatalf("after the fault: %d %s", w.Code, w.Body.String())
			}
			if d.dials() != dials+1 {
				t.Errorf("after the fault: %d dials, want %d (a failed channel is never reused)", d.dials(), dials+1)
			}
		})
	}
}

// TestChannelRetriesReusedOnce: an idempotent exchange whose reused
// channel fails before any byte of the answer — reset under it, or closed
// by the node's IdleTimeout while it idled — is sent once more on a fresh
// channel, and the node serves it once.
func TestChannelRetriesReusedOnce(t *testing.T) {
	full := compressStore(t, phoneMatrix(t, 40, 16))
	slice, err := full.SliceRows(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	frames := &frameCounter{}
	node := httptest.NewUnstartedServer(frames.wrap(server.NewHandler(slice, nil, server.Options{})))
	node.Config.IdleTimeout = 100 * time.Millisecond
	node.Start()
	defer node.Close()
	tc := &testCluster{proxy: NewWithTopology(&Topology{Shards: []Shard{{Addr: node.URL, Lo: 0, Hi: -1}}}, Options{})}
	d := &faultDialer{}
	dialThrough(tc, d)

	if w := tc.get(t, "/v1/cell?i=1&j=1"); w.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", w.Code, w.Body.String())
	}
	d.last().ResetAfterWrite(10)
	if w := tc.get(t, "/v1/cell?i=2&j=3"); w.Code != http.StatusOK {
		t.Fatalf("after a reset under a reused channel: %d %s", w.Code, w.Body.String())
	}
	if d.dials() != 2 || frames.count("/v1/cells") != 2 {
		t.Errorf("reset: %d dials and %d cells frames served, want 2 and 2", d.dials(), frames.count("/v1/cells"))
	}

	// The node closes a channel that idles past its IdleTimeout.
	idle := d.last()
	time.Sleep(300 * time.Millisecond)
	if _, err := idle.Conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the node kept a channel open past its IdleTimeout")
	}
	if w := tc.get(t, "/v1/cell?i=2&j=3"); w.Code != http.StatusOK {
		t.Fatalf("after an idle close: %d %s", w.Code, w.Body.String())
	}
	if d.dials() != 3 || frames.count("/v1/cells") != 3 {
		t.Errorf("idle close: %d dials and %d cells frames served, want 3 and 3", d.dials(), frames.count("/v1/cells"))
	}
}

// TestChannelNodeWriteTimeout: a node answers within its own
// http.Server.WriteTimeout or not at all, and the proxy turns the silence
// into a typed 503.
func TestChannelNodeWriteTimeout(t *testing.T) {
	full := compressStore(t, phoneMatrix(t, 40, 16))
	slice, err := full.SliceRows(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewHandler(slice, nil, server.Options{})
	node := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cells" {
			time.Sleep(300 * time.Millisecond)
		}
		h.ServeHTTP(w, r)
	}))
	node.Config.WriteTimeout = 100 * time.Millisecond
	node.Start()
	defer node.Close()
	tc := &testCluster{proxy: NewWithTopology(&Topology{Shards: []Shard{{Addr: node.URL, Lo: 0, Hi: -1}}},
		Options{Timeout: 5 * time.Second})}
	start := time.Now()
	w := tc.get(t, "/v1/cell?i=2&j=3")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("write timeout took %v to surface", elapsed)
	}
	unavailable503(t, "write timeout", w, node.URL)
}

// TestChannelBulkNeverReplayed: a bulk rides a fresh channel even when an
// idle one is pooled, and a bulk whose channel is reset mid-frame is a
// typed 503 that is never sent again: the node's row count is unchanged.
func TestChannelBulkNeverReplayed(t *testing.T) {
	full := compressStore(t, phoneMatrix(t, 40, 16))
	n, m := full.Dims()
	slice, err := full.SliceRows(0, n)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := ingest.Open(slice, nil, filepath.Join(t.TempDir(), "shard.wal"), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	frames := &frameCounter{}
	node := startNode(t, frames.wrap(server.NewHandler(tiered, nil, server.Options{})))
	tc := &testCluster{proxy: NewWithTopology(&Topology{Shards: []Shard{{Addr: node.URL, Lo: 0, Hi: -1}}}, Options{})}
	d := &faultDialer{}
	dialThrough(tc, d)
	doc := `{"values":[` + strings.TrimSuffix(strings.Repeat("1.5,", m), ",") + "]}\n"

	if w := tc.get(t, "/v1/cell?i=1&j=1"); w.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", w.Code, w.Body.String())
	}
	if w := tc.post(t, "/v1/bulk", doc); w.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", w.Code, w.Body.String())
	}
	if d.dials() != 2 {
		t.Fatalf("a bulk beside an idle channel: %d dials, want 2 (a bulk never rides a reused channel)", d.dials())
	}
	rows, _ := tiered.Dims()

	d.mu.Lock()
	d.arm = func(c *faultio.Conn, host string) { c.ResetAfterWrite(int64(len(upgradeRequest(host))) + 40) }
	d.mu.Unlock()
	w := tc.post(t, "/v1/bulk", doc)
	unavailable503(t, "reset bulk", w, node.URL)
	if after, _ := tiered.Dims(); after != rows || frames.count("/v1/bulk") != 1 || d.dials() != 3 {
		t.Errorf("reset bulk: rows %d → %d, %d bulks served, %d dials; want rows unchanged, 1 bulk, 3 dials",
			rows, after, frames.count("/v1/bulk"), d.dials())
	}
}

// TestChannelPoolKeepsSmallBuffers: a channel put back in the pool after a
// bulk larger than maxKeptFrame holds no buffer of the bulk's size.
func TestChannelPoolKeepsSmallBuffers(t *testing.T) {
	full := compressStore(t, phoneMatrix(t, 40, 16))
	n, m := full.Dims()
	slice, err := full.SliceRows(0, n)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := ingest.Open(slice, nil, filepath.Join(t.TempDir(), "shard.wal"), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	node := startNode(t, server.NewHandler(tiered, nil, server.Options{}))
	tc := &testCluster{proxy: NewWithTopology(&Topology{Shards: []Shard{{Addr: node.URL, Lo: 0, Hi: -1}}}, Options{})}
	doc := `{"values":[` + strings.TrimSuffix(strings.Repeat("1.5,", m), ",") + "]}\n"
	body := strings.Repeat(doc, 1000)
	if len(body) <= maxKeptFrame {
		t.Fatalf("a %d-byte bulk does not exceed maxKeptFrame", len(body))
	}
	if w := tc.post(t, "/v1/bulk", body); w.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", w.Code, w.Body.String())
	}
	pool := tc.proxy.shardsNow()[0].pool
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.idle) != 1 {
		t.Fatalf("%d idle channels after one bulk, want 1", len(pool.idle))
	}
	if c := cap(pool.idle[0].out); c > maxKeptFrame {
		t.Errorf("after a %d-byte bulk the pooled channel keeps a %d-byte request buffer", len(body), c)
	}
}

// TestChannelContext: an exchange's context sets its connection's
// deadline, and cancelling the context closes the connection, which the
// node sees as its request's cancellation.
func TestChannelContext(t *testing.T) {
	full := compressStore(t, phoneMatrix(t, 40, 16))
	var cancelled atomic.Int32
	stall := func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cells" {
				<-r.Context().Done()
				cancelled.Add(1)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	tc := startCluster(t, full, 1, 1, Options{}, stall)
	var deadlines []time.Time
	var mu sync.Mutex
	c := tc.proxy.shardsNow()[0]
	c.pool.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		raw, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		return &deadlineConn{Conn: raw, set: func(t time.Time) {
			mu.Lock()
			deadlines = append(deadlines, t)
			mu.Unlock()
		}}, err
	}

	dl := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.once(ctx, http.MethodGet, "/v1/cells?at=1:1", nil, true)
	if err == nil || time.Since(start) > 2*time.Second {
		t.Fatalf("cancelled exchange: %v after %v", err, time.Since(start))
	}
	mu.Lock()
	if len(deadlines) == 0 || !deadlines[len(deadlines)-1].Equal(dl) {
		t.Errorf("connection deadlines %v, want the context's %v", deadlines, dl)
	}
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for cancelled.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the node never saw its request cancelled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(c.pool.idle) != 0 {
		t.Error("a cancelled channel went back to the pool")
	}
}

// deadlineConn reports every deadline set on a connection.
type deadlineConn struct {
	net.Conn
	set func(time.Time)
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.set(t)
	return c.Conn.SetDeadline(t)
}

// TestReloadClosesIdleChannels: a topology reload closes the replaced
// clients' idle channels.
func TestReloadClosesIdleChannels(t *testing.T) {
	full := compressStore(t, phoneMatrix(t, 40, 16))
	node := startNode(t, server.NewHandler(full, nil, server.Options{}))
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := writeFile(path, fmt.Sprintf(`{"shards": [{"addr": %q, "lo": 0, "hi": -1}]}`, node.URL)); err != nil {
		t.Fatal(err)
	}
	p, err := New(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{proxy: p}
	if w := tc.get(t, "/v1/cell?i=1&j=1"); w.Code != http.StatusOK {
		t.Fatalf("cell: %d %s", w.Code, w.Body.String())
	}
	old := p.shardsNow()[0]
	if len(old.pool.idle) != 1 {
		t.Fatalf("%d idle channels after one exchange, want 1", len(old.pool.idle))
	}
	ch := old.pool.idle[0]
	if err := p.ReloadFile(); err != nil {
		t.Fatal(err)
	}
	if len(old.pool.idle) != 0 {
		t.Errorf("%d idle channels left on the replaced client", len(old.pool.idle))
	}
	if _, err := ch.conn.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write on the replaced client's channel: %v, want net.ErrClosed", err)
	}
	if w := tc.get(t, "/v1/cell?i=1&j=1"); w.Code != http.StatusOK {
		t.Fatalf("cell after reload: %d %s", w.Code, w.Body.String())
	}
}
