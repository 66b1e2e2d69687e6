package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// blockingStore gates Row reconstruction on a channel, so tests can hold a
// request in flight inside the handler while shutting the server down.
type blockingStore struct {
	store.Store
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (b *blockingStore) Row(i int, dst []float64) ([]float64, error) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return b.Store.Row(i, dst)
}

// TestGracefulShutdownDrainsInflight proves the drain: a request blocked
// inside reconstruction when SIGTERM-equivalent cancellation fires still
// completes with a 200, and only then does Run return.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	fs := &fakeStore{rows: 4, cols: 4, at: func(i, j int) float64 { return float64(i + j) }}
	bs := &blockingStore{
		Store:   fs,
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	srv := New(bs, nil, Config{Addr: "127.0.0.1:0", ShutdownTimeout: 5 * time.Second})
	l, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx, l) }()

	base := "http://" + l.Addr().String()
	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/row?i=1")
		if err != nil {
			resc <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resc <- result{status: resp.StatusCode}
	}()

	<-bs.started // the request is now inside the handler
	cancel()     // trigger graceful shutdown

	// Shutdown must wait for the in-flight request, not race past it.
	select {
	case err := <-runErr:
		t.Fatalf("Run returned (%v) while a request was still in flight", err)
	case <-time.After(150 * time.Millisecond):
	}

	close(bs.release)
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", res.status)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run = %v, want nil after clean drain", err)
	}
	// The listener is closed: new connections must fail.
	c := http.Client{Timeout: time.Second}
	if _, err := c.Get(base + "/v1/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

func TestRunReturnsOnListenerError(t *testing.T) {
	fs := &fakeStore{rows: 1, cols: 1, at: func(i, j int) float64 { return 0 }}
	srv := New(fs, nil, Config{Addr: "127.0.0.1:0"})
	l, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run(context.Background(), l) }()
	l.Close() // underlying accept fails → Run must return promptly
	select {
	case err := <-done:
		if err == nil {
			t.Error("Run = nil after listener error, want error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after the listener was closed")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Addr != ":8080" || c.ReadHeaderTimeout != 5*time.Second ||
		c.ReadTimeout != 10*time.Second || c.WriteTimeout != 60*time.Second ||
		c.IdleTimeout != 120*time.Second || c.MaxHeaderBytes != 1<<20 ||
		c.ShutdownTimeout != 10*time.Second {
		t.Errorf("defaults = %+v", c)
	}
}

// fileBackedStore builds a plain-SVD store whose U matrix lives in an .smx
// file on disk — the paper's operating point, where every cell
// reconstruction is one real disk access.
func fileBackedStore(t *testing.T) *core.Store {
	t.Helper()
	x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(80))
	src := matio.NewMem(x)
	f, err := svd.ComputeFactors(src)
	if err != nil {
		t.Fatal(err)
	}
	k := f.Clamp(8)
	path := filepath.Join(t.TempDir(), "u.smx")
	w, err := matio.Create(path, x.Rows(), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := svd.ComputeU(src, f, k, func(i int, urow []float64) error {
		return w.WriteRow(urow)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	uf, err := matio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uf.Close() })
	st, err := svd.New(f, k, uf)
	if err != nil {
		t.Fatal(err)
	}
	return core.Plain(st)
}

// TestConcurrentQueriesFileBacked hammers /cell, /row, /agg and /metrics
// concurrently against a File-backed store. Run under -race (make check
// does) it proves the serving hot path — the pooled U-row, row and body
// buffers, the telemetry counters, and the matio stats — is data-race free
// over a real disk-resident U.
func TestConcurrentQueriesFileBacked(t *testing.T) {
	st := fileBackedStore(t)
	h := NewHandler(st, nil, Options{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	n, m := st.Dims()
	const workers = 8
	const perWorker = 60
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < perWorker; it++ {
				var url string
				switch it % 4 {
				case 0:
					url = fmt.Sprintf("%s/v1/cell?i=%d&j=%d", srv.URL, rng.Intn(n), rng.Intn(m))
				case 1:
					url = fmt.Sprintf("%s/v1/row?i=%d", srv.URL, rng.Intn(n))
				case 2:
					lo := rng.Intn(n - 1)
					url = fmt.Sprintf("%s/v1/aggregate?f=sum&rows=%d:%d&cols=0:20", srv.URL, lo, lo+1+rng.Intn(n-lo-1))
				case 3:
					url = srv.URL + "/v1/metrics"
				}
				resp, err := fetch(url, nil)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()

	// Every reconstruction (point read or /agg row scan) is exactly one
	// U-row read.
	if us := st.Base().UStats(); us.Snapshot().RowReads == 0 {
		t.Error("no U-row reads recorded under load")
	}
}
