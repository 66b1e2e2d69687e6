package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// readChannel decodes one request (response false) or response frame from
// data, returning the frame re-encoded. Requests are read under net/http's
// default header limit.
func readChannel(data []byte, response bool) ([]byte, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	if response {
		resp, err := ReadChannelResponse(br)
		if err != nil {
			return nil, err
		}
		return appendChannelResponse(nil, resp), nil
	}
	req, err := readChannelRequest(br, http.DefaultMaxHeaderBytes)
	if err != nil {
		return nil, err
	}
	return AppendChannelRequest(nil, req), nil
}

func channelSeeds() [][]byte {
	return [][]byte{
		AppendChannelRequest(nil, &ChannelRequest{Method: "GET", Target: "/v1/cells?at=1:2",
			Header: []string{"Accept", FrameType, "X-Request-Id", "abc"}}),
		AppendChannelRequest(nil, &ChannelRequest{Method: "POST", Target: "/v1/bulk",
			Header: []string{"Content-Type", "application/json"}, Body: []byte(`{"values":[1]}` + "\n")}),
		appendChannelResponse(nil, &ChannelResponse{Status: 200,
			Header: []string{"Content-Type", FrameType, "X-Cost-Disk-Accesses", "1"}, Body: []byte("SQC1")}),
		appendChannelResponse(nil, &ChannelResponse{Status: 503}),
		binary.LittleEndian.AppendUint32(nil, maxChannelFrame),
		binary.LittleEndian.AppendUint32(nil, maxChannelFrame+1),
		binary.LittleEndian.AppendUint32(nil, uint32(nodeFrameLimit(http.DefaultMaxHeaderBytes)+1)),
		{8, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255},
	}
}

// FuzzChannelFrame feeds arbitrary bytes to both channel frame readers. A
// reader never panics; it allocates no more than a small multiple of the
// frame's declared length, capped at its limit (a node's for requests,
// maxChannelFrame for answers), whatever the length claims; a frame it
// accepts re-encodes to exactly the bytes it consumed; and every strict
// prefix of those bytes is refused.
func FuzzChannelFrame(f *testing.F) {
	for _, s := range channelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, response := range []bool{false, true} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			enc, err := readChannel(data, response)
			runtime.ReadMemStats(&after)
			if len(data) >= 4 {
				limit := maxChannelFrame
				if !response {
					limit = nodeFrameLimit(http.DefaultMaxHeaderBytes)
				}
				declared := min(int(binary.LittleEndian.Uint32(data)), limit)
				// The reader and, on success, the re-encoding; the bufio
				// buffer is 4 KiB.
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*declared+16<<10) {
					t.Fatalf("response=%v: %d bytes allocated for a frame declaring %d", response, alloc, declared)
				}
			}
			if err != nil {
				continue
			}
			if n := len(enc); n > len(data) || !bytes.Equal(enc, data[:n]) {
				t.Fatalf("response=%v: re-encoding %x of %x", response, enc, data)
			}
			for k := range enc {
				if _, err := readChannel(enc[:k], response); err == nil {
					t.Fatalf("response=%v: the %d-byte prefix of a %d-byte frame decoded", response, k, len(enc))
				}
			}
		}
	})
}

// TestChannelFrameRead pins what the fuzzer's small inputs do not reach —
// a frame larger than the first chunk a reader allocates — and the
// refusals a reader makes: a length over its limit, unread; a length that
// promises more bytes than arrive; and a request whose method, target and
// headers exceed the header limit.
func TestChannelFrameRead(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 3*channelChunk/10)
	frame := appendChannelResponse(nil, &ChannelResponse{Status: 200, Body: body})
	if enc, err := readChannel(frame, true); err != nil || !bytes.Equal(enc, frame) {
		t.Errorf("a %d-byte frame: %v, equal %v", len(frame), err, bytes.Equal(enc, frame))
	}
	if _, err := readChannel(frame[:len(frame)-1], true); err != io.ErrUnexpectedEOF {
		t.Errorf("a %d-byte frame cut by one byte: %v, want io.ErrUnexpectedEOF", len(frame), err)
	}

	big := binary.LittleEndian.AppendUint32(nil, maxChannelFrame+1)
	if _, err := readChannel(big, true); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("oversized frame: %v, want errFrameTooLarge", err)
	}
	bigReq := binary.LittleEndian.AppendUint32(nil, uint32(nodeFrameLimit(http.DefaultMaxHeaderBytes)+1))
	if _, err := readChannel(bigReq, false); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("request over the node's frame limit: %v, want errFrameTooLarge", err)
	}
	req := AppendChannelRequest(nil, &ChannelRequest{Method: "GET", Target: "/v1/cells",
		Header: []string{"X-Pad", strings.Repeat("x", 1000)}, Body: bytes.Repeat([]byte("b"), 4000)})
	br := bufio.NewReader(bytes.NewReader(req))
	if _, err := readChannelRequest(br, 1000); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("headers over a 1000-byte limit: %v, want errFrameTooLarge", err)
	}
	br = bufio.NewReader(bytes.NewReader(req))
	if got, err := readChannelRequest(br, 1100); err != nil || len(got.Body) != 4000 {
		t.Errorf("headers under a 1100-byte limit with a 4000-byte body: %v", err)
	}
	short := append(binary.LittleEndian.AppendUint32(nil, uint32(nodeFrameLimit(http.DefaultMaxHeaderBytes))), 1, 2, 3)
	if _, err := readChannel(short, false); err != io.ErrUnexpectedEOF {
		t.Errorf("short frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := readChannel(nil, false); err != io.EOF {
		t.Errorf("no frame: %v, want io.EOF", err)
	}
	resp := ChannelResponse{Status: 200, Header: []string{"x-cost-rows-read", "3", "X-Cost-Rows-Read", "4"}}
	if h := resp.HTTPHeader(); len(h["X-Cost-Rows-Read"]) != 2 || h.Get("X-Cost-Rows-Read") != "3" {
		t.Errorf("header %v: want both values under the canonical key", h)
	}
}

// channelNode serves the channel route beside other on a test server that
// set adjusts before it starts, and tracks the server's channels.
func channelNode(t *testing.T, other http.Handler, set func(*http.Server)) (*httptest.Server, *Channels) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(ChannelPath, (&Handler{}).channel)
	mux.Handle("/", other)
	cs := &Channels{}
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.BaseContext = func(net.Listener) context.Context { return WithChannels(context.Background(), cs) }
	if set != nil {
		set(srv.Config)
	}
	srv.Start()
	t.Cleanup(func() {
		cs.Shutdown(context.Background())
		srv.Close()
	})
	return srv, cs
}

// dialChannel opens a channel to srv.
func dialChannel(t *testing.T, srv *httptest.Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	io.WriteString(conn, "GET "+ChannelPath+" HTTP/1.1\r\nHost: node\r\nConnection: Upgrade\r\nUpgrade: "+ChannelProtocol+"\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	return conn, br
}

// closedAfter waits up to limit for the node to close conn and returns how
// long that took.
func closedAfter(t *testing.T, what string, conn net.Conn, br *bufio.Reader, limit time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	conn.SetReadDeadline(start.Add(limit))
	_, err := br.ReadByte()
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("%s: the node kept the channel open for %v (%v)", what, limit, err)
	}
	return time.Since(start)
}

// TestChannelNodeLimits: a node bounds a request frame as its http.Server
// bounds an HTTP request. A declared length above MaxHeaderBytes plus
// MaxBulkBody is refused unread, method, target and headers above
// MaxHeaderBytes are refused, and a frame that stalls after its first byte
// is closed within ReadTimeout, not IdleTimeout; none reaches the handler.
// A body larger than MaxHeaderBytes is served.
func TestChannelNodeLimits(t *testing.T) {
	const readTimeout = time.Second
	var served atomic.Int32
	srv, _ := channelNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}), func(s *http.Server) {
		s.ReadTimeout = readTimeout
		s.IdleTimeout = time.Minute
		s.MaxHeaderBytes = 4096
	})

	conn, br := dialChannel(t, srv)
	conn.Write(AppendChannelRequest(nil, &ChannelRequest{Method: "POST", Target: "/x", Body: bytes.Repeat([]byte("b"), 8192)}))
	if resp, err := ReadChannelResponse(br); err != nil || resp.Status != http.StatusNoContent {
		t.Fatalf("an 8 KiB body under a 4 KiB header limit: %v %v", resp, err)
	}

	for _, tt := range []struct {
		name     string
		frame    []byte
		min, max time.Duration
	}{
		{"declared length over the limit",
			binary.LittleEndian.AppendUint32(nil, uint32(nodeFrameLimit(4096)+1)), 0, readTimeout / 2},
		{"headers over MaxHeaderBytes", AppendChannelRequest(nil, &ChannelRequest{Method: "GET", Target: "/x",
			Header: []string{"X-Pad", strings.Repeat("x", 4096)}}), 0, readTimeout / 2},
		{"frame stalled mid-body",
			append(binary.LittleEndian.AppendUint32(nil, 1000), "0123456789"...), readTimeout / 2, 10 * readTimeout},
	} {
		conn, br := dialChannel(t, srv)
		conn.Write(tt.frame)
		if d := closedAfter(t, tt.name, conn, br, tt.max); d < tt.min {
			t.Errorf("%s: closed after %v, want at least %v", tt.name, d, tt.min)
		}
	}
	if n := served.Load(); n != 1 {
		t.Errorf("the handler served %d frames, want 1", n)
	}
}

// TestChannelKeepsSmallBuffers: a node channel that served a wide answer
// with a wide header keeps no buffer of either's size for its next frame.
func TestChannelKeepsSmallBuffers(t *testing.T) {
	wide := bytes.Repeat([]byte("w"), 1<<20)
	pad := strings.Repeat("p", 2*channelChunk)
	srv, cs := channelNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Pad", pad)
		w.Write(wide)
	}), nil)
	conn, br := dialChannel(t, srv)
	conn.Write(AppendChannelRequest(nil, &ChannelRequest{Method: "GET", Target: "/wide"}))
	if resp, err := ReadChannelResponse(br); err != nil || !bytes.Equal(resp.Body, wide) || resp.HTTPHeader().Get("X-Pad") != pad {
		t.Fatalf("wide answer: %v", err)
	}
	cs.mu.Lock()
	var c *nodeChannel
	for c = range cs.live {
	}
	cs.mu.Unlock()
	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cs.mu.Lock()
		n := len(cs.live)
		cs.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the channel did not close")
		}
	}
	if cap(c.w.body) > channelChunk || cap(c.out) > channelChunk {
		t.Errorf("after a %d-byte answer the channel keeps a %d-byte body and a %d-byte frame buffer",
			len(wide), cap(c.w.body), cap(c.out))
	}
}
