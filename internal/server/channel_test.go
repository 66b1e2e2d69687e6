package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"seqstore/internal/api"
)

// openChannel dials addr and upgrades the connection to a channel by hand,
// the way a proxy's shard client does.
func openChannel(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(conn, "GET "+api.ChannelPath+" HTTP/1.1\r\nHost: "+addr+
		"\r\nConnection: Upgrade\r\nUpgrade: "+api.ChannelProtocol+"\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	return conn, br
}

// TestGracefulShutdownDrainsChannels is the drain for channels, which
// http.Server.Shutdown does not track: a frame blocked inside its handler
// when shutdown starts still gets its answer, an idle channel is closed at
// once, Run returns nil only after the answer, and nothing the channels
// started outlives the server.
func TestGracefulShutdownDrainsChannels(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fs := &fakeStore{rows: 4, cols: 4, at: func(i, j int) float64 { return float64(i + j) }}
	bs := &blockingStore{Store: fs, started: make(chan struct{}), release: make(chan struct{})}
	srv := New(bs, nil, Config{Addr: "127.0.0.1:0", ShutdownTimeout: 5 * time.Second})
	l, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx, l) }()

	busy, busyR := openChannel(t, l.Addr().String())
	defer busy.Close()
	idle, idleR := openChannel(t, l.Addr().String())
	defer idle.Close()
	busy.Write(api.AppendChannelRequest(nil, &api.ChannelRequest{Method: http.MethodGet, Target: "/v1/row?i=1"}))
	var wg sync.WaitGroup
	var resp *api.ChannelResponse
	var respErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, respErr = api.ReadChannelResponse(busyR)
	}()

	<-bs.started
	cancel()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idleR.ReadByte(); err != io.EOF {
		t.Errorf("idle channel during shutdown: read %v, want EOF", err)
	}
	select {
	case err := <-runErr:
		t.Fatalf("Run returned (%v) while a channel frame was in flight", err)
	case <-time.After(150 * time.Millisecond):
	}

	close(bs.release)
	wg.Wait()
	if respErr != nil || resp.Status != http.StatusOK {
		t.Fatalf("in-flight frame during shutdown: %+v, %v", resp, respErr)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run = %v, want nil after a clean drain", err)
	}
	if _, err := busyR.ReadByte(); err != io.EOF {
		t.Errorf("answered channel after shutdown: read %v, want EOF", err)
	}
	busy.Close()
	idle.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the server started:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
