package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"seqstore/internal/api"
)

const (
	// maxIdleChannels bounds the idle channels a shard client keeps; a
	// channel put back beyond it is closed.
	maxIdleChannels = 32
	// maxKeptFrame bounds the request buffer a channel keeps between
	// exchanges, so a bulk's does not stay pinned in the pool.
	maxKeptFrame = 64 << 10
)

// channel is one persistent framed connection to a store node (see
// api.ChannelPath), used by one exchange at a time.
type channel struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte // the request frame being written
	lost bool   // the last exchange's context closed the connection
}

// channelPool is a shard client's idle channels to its node.
type channelPool struct {
	host string // host:port
	// dial opens the TCP connection under a channel; tests swap in one
	// that injects faults.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu     sync.Mutex
	idle   []*channel
	closed bool
}

func newChannelPool(host string) *channelPool {
	return &channelPool{host: host, dial: (&net.Dialer{}).DialContext}
}

// get returns an idle channel (reused true), or a new one when fresh is set
// or none is idle.
func (p *channelPool) get(ctx context.Context, fresh bool) (ch *channel, reused bool, err error) {
	if !fresh {
		p.mu.Lock()
		if n := len(p.idle); n > 0 {
			ch = p.idle[n-1]
			p.idle = p.idle[:n-1]
		}
		p.mu.Unlock()
		if ch != nil {
			return ch, true, nil
		}
	}
	ch, err = p.open(ctx)
	return ch, false, err
}

// open dials the node and upgrades the connection, under ctx's deadline.
func (p *channelPool) open(ctx context.Context) (*channel, error) {
	conn, err := p.dial(ctx, "tcp", p.host)
	if err != nil {
		return nil, err
	}
	ch := &channel{conn: conn, br: bufio.NewReader(conn)}
	stop := ch.bind(ctx)
	resp, err := ch.handshake(p.host)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
		err = fmt.Errorf("channel upgrade refused: %s", resp.Status)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return ch, nil
}

// upgradeRequest is the request that opens a channel to host.
func upgradeRequest(host string) string {
	return "GET " + api.ChannelPath + " HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + api.ChannelProtocol + "\r\n\r\n"
}

func (ch *channel) handshake(host string) (*http.Response, error) {
	if _, err := io.WriteString(ch.conn, upgradeRequest(host)); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(ch.br, nil)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	return resp, nil
}

// put returns a channel whose exchange succeeded to the pool; a lost
// channel, a closed pool or a full one closes it instead.
func (p *channelPool) put(ch *channel) {
	p.mu.Lock()
	if !ch.lost && !p.closed && len(p.idle) < maxIdleChannels {
		p.idle = append(p.idle, ch)
		ch = nil
	}
	p.mu.Unlock()
	if ch != nil {
		ch.conn.Close()
	}
}

// close closes the idle channels, and every channel put back from now on.
func (p *channelPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, ch := range idle {
		ch.conn.Close()
	}
}

// bind ties the connection to ctx: its deadline becomes the connection's,
// and cancelling ctx closes the connection, which unblocks a read or write
// in flight. The returned stop unbinds; it reports false when ctx already
// closed the connection.
func (ch *channel) bind(ctx context.Context) (stop func() bool) {
	dl, _ := ctx.Deadline()
	ch.conn.SetDeadline(dl)
	return context.AfterFunc(ctx, func() { ch.conn.Close() })
}

// roundTrip writes one request frame and reads its response frame.
// started reports whether any response byte arrived, which tells a request
// the node never saw from one it may have run. A channel whose ctx closed
// it, even after a whole answer arrived, is marked lost.
func (ch *channel) roundTrip(ctx context.Context, req *api.ChannelRequest) (resp *api.ChannelResponse, started bool, err error) {
	stop := ch.bind(ctx)
	defer func() { ch.lost = !stop() }()
	ch.out = api.AppendChannelRequest(ch.out[:0], req)
	_, err = ch.conn.Write(ch.out)
	if cap(ch.out) > maxKeptFrame {
		ch.out = nil
	}
	if err != nil {
		return nil, false, err
	}
	if _, err = ch.br.Peek(1); err != nil {
		return nil, false, err
	}
	resp, err = api.ReadChannelResponse(ch.br)
	return resp, true, err
}
