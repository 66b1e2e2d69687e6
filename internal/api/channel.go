package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

// A channel is a persistent framed connection from a proxy to a store
// node: one GET ChannelPath with "Upgrade: seqstore-frames" on the node's
// own listener, then request and response frames, one exchange at a time.
// Each request frame is served as an *http.Request through the serving
// http.Server's root Handler, so routing, validation, the cost ledger,
// traces, telemetry, the request log, frame/JSON negotiation and any
// wrapper around the handler see a channel request exactly as they see one
// that arrived as HTTP. What the channel saves is the HTTP/1.1 text: a
// request line and MIME headers each way, parsed, canonicalized and
// sorted per exchange.
//
// A frame is a little-endian uint32 length and then that many bytes:
//
//	request   method · target · h · h × (key · value) · body
//	response  status · h · h × (key · value) · body
//
// with status and h uint32, the strings length-prefixed fields as in the
// body frames (frame.go), target the path and query, and the body the rest
// of the frame. Header pairs keep their order, so decoding and re-encoding
// a frame reproduces its bytes.
const (
	ChannelPath     = "/v1/channel"
	ChannelProtocol = "seqstore-frames"
	// maxChannelFrame bounds an answer frame, which a proxy refuses
	// unread when it is larger. Answers come from the proxy's own nodes;
	// row reads over wide matrices are the largest, and 1 GiB is far above
	// any. A node bounds request frames by its own limits (nodeFrameLimit).
	maxChannelFrame = 1 << 30
	// MaxBulkBody bounds a /v1/bulk body at the proxy, which buffers it
	// once so a shard hiccup never leaves a half-consumed stream. It is the
	// largest body a request frame carries.
	MaxBulkBody = 1 << 26
	// maxChannelHeaders bounds a frame's header pairs, which keeps what a
	// decoded frame allocates proportional to its length.
	maxChannelHeaders = 256
	// channelChunk is the most a frame read allocates before its bytes
	// arrive, and the largest buffer a channel keeps between frames.
	channelChunk = 64 << 10
)

// channelHandshake is the node's answer to an upgrade request.
const channelHandshake = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + ChannelProtocol + "\r\n\r\n"

// errFrameTooLarge refuses a frame longer than its reader's limit, or a
// request frame whose method, target and headers exceed the node's header
// limit.
var errFrameTooLarge = errors.New("api: channel frame exceeds limit")

// ChannelRequest is one request frame. Header alternates keys and values.
type ChannelRequest struct {
	Method, Target string
	Header         []string
	Body           []byte
}

// ChannelResponse is one response frame. Header alternates keys and values.
type ChannelResponse struct {
	Status int
	Header []string
	Body   []byte
}

// AppendChannelRequest appends a request frame to b.
func AppendChannelRequest(b []byte, req *ChannelRequest) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = appendField(appendField(b, req.Method), req.Target)
	b = appendLen(b, len(req.Header)/2)
	for _, s := range req.Header[:len(req.Header)&^1] {
		b = appendField(b, s)
	}
	return closeFrame(append(b, req.Body...), start)
}

// appendChannelResponse appends a response frame to b.
func appendChannelResponse(b []byte, resp *ChannelResponse) []byte {
	return append(appendChannelResponseHead(b, resp, len(resp.Body)), resp.Body...)
}

// appendChannelResponseHead appends a response frame up to its body, which
// is bodyLen bytes long and is written after it.
func appendChannelResponseHead(b []byte, resp *ChannelResponse, bodyLen int) []byte {
	start := len(b)
	b = appendLen(append(b, 0, 0, 0, 0), resp.Status)
	b = appendLen(b, len(resp.Header)/2)
	for _, s := range resp.Header[:len(resp.Header)&^1] {
		b = appendField(b, s)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4+bodyLen))
	return b
}

// closeFrame writes the length of the frame that starts at b[start].
func closeFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// readChannelRequest reads one request frame whose method, target and
// header pairs take at most maxHeader bytes, as an HTTP request's line and
// headers take at most http.Server.MaxHeaderBytes.
func readChannelRequest(br *bufio.Reader, maxHeader int) (*ChannelRequest, error) {
	d, err := readChannelFrame(br, nodeFrameLimit(maxHeader))
	if err != nil {
		return nil, err
	}
	r := &frameReader{d: d}
	req := &ChannelRequest{Method: string(r.field()), Target: string(r.field())}
	req.Header = r.pairs()
	if r.err != nil {
		return nil, errFrame
	}
	if len(d)-len(r.d) > maxHeader {
		return nil, errFrameTooLarge
	}
	req.Body = r.d
	return req, nil
}

// nodeFrameLimit is the longest request frame a node reads: its header
// limit and the largest body a proxy sends, a bulk's.
func nodeFrameLimit(maxHeader int) int { return maxHeader + MaxBulkBody }

// ReadChannelResponse reads one response frame.
func ReadChannelResponse(br *bufio.Reader) (*ChannelResponse, error) {
	d, err := readChannelFrame(br, maxChannelFrame)
	if err != nil {
		return nil, err
	}
	r := &frameReader{d: d}
	resp := &ChannelResponse{Status: r.u32()}
	resp.Header = r.pairs()
	if r.err != nil {
		return nil, errFrame
	}
	resp.Body = r.d
	return resp, nil
}

// readChannelFrame reads one length-prefixed frame. It allocates as the
// bytes arrive, never the declared length up front, so a peer that
// declares a gigabyte and sends ten bytes costs ten bytes; a length over
// limit is refused unread. A frame cut short is io.ErrUnexpectedEOF; a
// clean end before the next frame is io.EOF.
func readChannelFrame(br *bufio.Reader, limit int) ([]byte, error) {
	p, err := br.Peek(4)
	if err != nil {
		if len(p) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(p))
	br.Discard(4)
	if n > limit {
		return nil, errFrameTooLarge
	}
	buf := make([]byte, 0, min(n, channelChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, 2*cap(buf))-len(buf))
		}
		m, err := br.Read(buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// pairs reads a header pair count and the pairs. Every key and value is a
// substring of one string copied from the frame, so the pairs cost two
// allocations however many there are.
func (r *frameReader) pairs() []string {
	n := r.count(8)
	if n > maxChannelHeaders {
		r.err = errFrame
	}
	region := r.d
	for i := 0; i < 2*n; i++ {
		r.take(r.u32())
	}
	if r.err != nil || n == 0 {
		return nil
	}
	s := string(region[:len(region)-len(r.d)])
	kv := make([]string, 2*n)
	for i := range kv {
		l := int(s[0]) | int(s[1])<<8 | int(s[2])<<16 | int(s[3])<<24
		kv[i], s = s[4:4+l], s[4+l:]
	}
	return kv
}

// HTTPHeader is the frame's header pairs as an http.Header under canonical
// keys, sharing the values' storage.
func (resp *ChannelResponse) HTTPHeader() http.Header { return pairsHeader(resp.Header) }

func pairsHeader(kv []string) http.Header {
	h := make(http.Header, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		k := http.CanonicalHeaderKey(kv[i])
		if vs, ok := h[k]; ok {
			h[k] = append(vs, kv[i+1])
		} else {
			h[k] = kv[i+1 : i+2 : i+2]
		}
	}
	return h
}

// --- The node's end ----------------------------------------------------------

// channel upgrades GET ChannelPath to a channel and serves it until the
// peer closes it, it idles past the server's IdleTimeout, or the server
// drains it. It is not an instrumented endpoint: the frames it carries are.
func (h *Handler) channel(w http.ResponseWriter, r *http.Request) {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), ChannelProtocol) || srv == nil {
		w.Header().Set("Upgrade", ChannelProtocol)
		WriteErrorDetail(w, http.StatusUpgradeRequired, ErrorDetail{
			Code:    CodeBadRequest,
			Message: "channel needs GET with Upgrade: " + ChannelProtocol + " on a served listener",
		})
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		WriteError(w, r, err)
		return
	}
	maxHeader := srv.MaxHeaderBytes
	if maxHeader <= 0 {
		maxHeader = http.DefaultMaxHeaderBytes
	}
	c := &nodeChannel{conn: conn, srv: srv, maxHeader: maxHeader, host: r.Host, remote: r.RemoteAddr, done: make(chan struct{}, 1)}
	c.serve(r.Context(), brw.Reader)
}

// nodeChannel is one upgraded connection on a store node.
type nodeChannel struct {
	conn         net.Conn
	srv          *http.Server
	maxHeader    int // the server's MaxHeaderBytes, or net/http's default
	host, remote string
	done         chan struct{} // the in-flight frame's goroutine finished
	// Reused: one frame is in flight at a time. None grows past
	// channelChunk between frames.
	w   frameWriter
	kv  []string
	out []byte

	mu      sync.Mutex
	busy    bool // a frame is in flight
	reading bool // a request frame has begun to arrive
	closing bool // draining: close once idle
}

// serve reads frames until the connection fails. Each frame runs on its
// own goroutine while this one keeps reading, so a peer that closes the
// connection cancels the frame's context as a closed HTTP connection
// cancels its request's. The server's limits apply as they do to HTTP:
// IdleTimeout (ReadTimeout when unset) bounds the wait for a frame,
// ReadTimeout the rest of the frame once its first byte has arrived,
// MaxHeaderBytes its method, target and headers, and WriteTimeout its
// response from the moment the frame is read. A frame's body is at most
// MaxBulkBody.
func (c *nodeChannel) serve(ctx context.Context, br *bufio.Reader) {
	set := channelsFrom(ctx)
	if !set.add(c) {
		c.conn.Close()
		return
	}
	defer set.remove(c)
	defer c.conn.Close()
	// One context serves every frame, since a frame runs only while the
	// channel is open: the read that finds it closed cancels the frame in
	// flight.
	ctx, cancel := context.WithCancel(ctx)
	inflight := false
	defer func() {
		cancel()
		if inflight {
			<-c.done
		}
	}()
	// Drop the deadlines net/http set for the upgrade request.
	c.conn.SetDeadline(time.Time{})
	if _, err := io.WriteString(c.conn, channelHandshake); err != nil {
		return
	}
	c.idle()
	for {
		if _, err := br.Peek(1); err != nil {
			return
		}
		c.arrive()
		req, err := readChannelRequest(br, c.maxHeader)
		if err != nil {
			return
		}
		if inflight {
			// A peer that sends before its answer arrived is served in
			// order.
			<-c.done
			inflight = false
		}
		if !c.begin() {
			return
		}
		if c.srv.WriteTimeout > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(c.srv.WriteTimeout))
		}
		inflight = true
		go c.run(ctx, req)
	}
}

// run serves one frame through the server's root handler and writes its
// response frame.
func (c *nodeChannel) run(ctx context.Context, req *ChannelRequest) {
	defer func() { c.done <- struct{}{} }()
	w := &c.w
	w.reset()
	ok := true
	if hr, err := req.httpRequest(ctx, c.host, c.remote); err != nil {
		WriteErrorDetail(w, http.StatusBadRequest, ErrorDetail{Code: CodeBadRequest, Message: err.Error()})
	} else {
		ok = c.dispatch(w, hr)
	}
	if ok {
		resp := ChannelResponse{Status: w.status, Header: c.kv[:0]}
		for k, vs := range w.header {
			for _, v := range vs {
				resp.Header = append(resp.Header, k, v)
			}
		}
		c.kv = resp.Header
		c.out = appendChannelResponseHead(c.out[:0], &resp, len(w.body))
		var err error
		if len(w.body) <= channelChunk {
			c.out = append(c.out, w.body...)
			_, err = c.conn.Write(c.out)
		} else {
			// A wide answer is written from the handler's buffer, not
			// copied.
			bufs := net.Buffers{c.out, w.body}
			_, err = bufs.WriteTo(c.conn)
		}
		ok = err == nil
		clear(c.kv)
	}
	// A wide answer's buffers are not kept for the channel's life.
	if cap(w.body) > channelChunk {
		w.body = nil
	}
	if cap(c.out) > channelChunk {
		c.out = nil
	}
	c.end(ok)
}

// dispatch runs the root handler, and reports false for a handler that
// panicked: as net/http does, the connection then closes without an
// answer.
func (c *nodeChannel) dispatch(w http.ResponseWriter, r *http.Request) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
			if p != http.ErrAbortHandler {
				logf := log.Printf
				if c.srv.ErrorLog != nil {
					logf = c.srv.ErrorLog.Printf
				}
				logf("api: panic serving channel frame %s: %v\n%s", r.URL.Path, p, debug.Stack())
			}
		}
	}()
	h := c.srv.Handler
	if h == nil {
		h = http.DefaultServeMux
	}
	h.ServeHTTP(w, r)
	return true
}

// httpRequest is the frame as the request a handler serves.
func (req *ChannelRequest) httpRequest(ctx context.Context, host, remote string) (*http.Request, error) {
	hr, err := http.NewRequestWithContext(ctx, req.Method, req.Target, nil)
	if err != nil {
		return nil, err
	}
	hr.Header = pairsHeader(req.Header)
	hr.Host, hr.RemoteAddr, hr.RequestURI = host, remote, req.Target
	hr.Body = http.NoBody
	if len(req.Body) > 0 {
		body := &frameBody{}
		body.Reset(req.Body)
		hr.Body, hr.ContentLength = body, int64(len(req.Body))
	}
	return hr, nil
}

// frameBody is a request frame's body as an io.ReadCloser.
type frameBody struct{ bytes.Reader }

func (*frameBody) Close() error { return nil }

// idle arms the wait for the next frame.
func (c *nodeChannel) idle() {
	d := c.srv.IdleTimeout
	if d <= 0 {
		d = c.srv.ReadTimeout
	}
	if d > 0 {
		c.conn.SetReadDeadline(time.Now().Add(d))
	}
}

// arrive arms ReadTimeout for the rest of a frame whose first byte has
// arrived, as net/http does for a request.
func (c *nodeChannel) arrive() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reading = true
	var dl time.Time
	if c.srv.ReadTimeout > 0 {
		dl = time.Now().Add(c.srv.ReadTimeout)
	}
	c.conn.SetReadDeadline(dl)
}

// begin marks a frame read and in flight, and lifts the read deadline so
// that the reader waits for the peer to close while the frame runs; false
// when the channel is draining.
func (c *nodeChannel) begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reading = false
	c.conn.SetReadDeadline(time.Time{})
	c.busy = !c.closing
	return c.busy
}

// end marks the frame answered: a draining or failed channel closes, a
// healthy one waits for the next frame, unless that frame has already
// begun to arrive under its ReadTimeout.
func (c *nodeChannel) end(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = false
	if !ok || c.closing {
		c.conn.Close()
		return
	}
	if !c.reading {
		c.idle()
	}
}

// drain closes the channel now if it is idle, or once its frame is
// answered.
func (c *nodeChannel) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closing = true
	if !c.busy {
		c.conn.Close()
	}
}

// frameWriter buffers a handler's whole response for its frame.
type frameWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *frameWriter) reset() {
	if w.header == nil {
		w.header = make(http.Header, 16)
	}
	clear(w.header)
	w.status, w.body = 0, w.body[:0]
}

func (w *frameWriter) Header() http.Header { return w.header }

func (w *frameWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *frameWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

// --- Draining ---------------------------------------------------------------

// Channels tracks the channels one http.Server has upgraded, so that its
// owner can drain them on shutdown: http.Server.Shutdown forgets a
// hijacked connection. Put it in the server's BaseContext with
// WithChannels. A nil *Channels tracks nothing.
type Channels struct {
	mu      sync.Mutex
	live    map[*nodeChannel]struct{}
	closing bool
	empty   chan struct{} // closed once closing and nothing is live
}

type channelsKey struct{}

// WithChannels returns ctx carrying cs, for http.Server.BaseContext.
func WithChannels(ctx context.Context, cs *Channels) context.Context {
	return context.WithValue(ctx, channelsKey{}, cs)
}

func channelsFrom(ctx context.Context) *Channels {
	cs, _ := ctx.Value(channelsKey{}).(*Channels)
	return cs
}

func (cs *Channels) add(c *nodeChannel) bool {
	if cs == nil {
		return true
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closing {
		return false
	}
	if cs.live == nil {
		cs.live = map[*nodeChannel]struct{}{}
	}
	cs.live[c] = struct{}{}
	return true
}

func (cs *Channels) remove(c *nodeChannel) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.live, c)
	cs.signal()
}

// signal closes empty once draining has nothing left; cs.mu is held.
func (cs *Channels) signal() {
	if cs.closing && len(cs.live) == 0 && cs.empty != nil {
		close(cs.empty)
		cs.empty = nil
	}
}

// Drain stops every channel from taking another frame: an idle one closes
// now, a busy one once its response is written, and a new one is refused.
// It is idempotent, and fits http.Server.RegisterOnShutdown.
func (cs *Channels) Drain() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !cs.closing {
		cs.closing = true
		cs.empty = make(chan struct{})
	}
	for c := range cs.live {
		c.drain()
	}
	cs.signal()
}

// Shutdown drains the channels and waits until every one has closed. When
// ctx ends first it closes the rest, in-flight frames included, and
// returns ctx.Err().
func (cs *Channels) Shutdown(ctx context.Context) error {
	cs.Drain()
	cs.mu.Lock()
	empty := cs.empty
	cs.mu.Unlock()
	if empty == nil {
		return nil
	}
	select {
	case <-empty:
		return nil
	case <-ctx.Done():
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for c := range cs.live {
		c.conn.Close()
	}
	return ctx.Err()
}
