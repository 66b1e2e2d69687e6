package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/seqerr"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// shardResp is a fully read store-node response: status, headers (for the
// cost ledger), and body bytes.
type shardResp struct {
	status int
	header http.Header
	body   []byte
}

// shardClient is the proxy's view of one store node: a pool of channels to
// it, a per-request timeout, optional hedged retry for idempotent reads,
// and the per-shard gauges /v1/metrics exposes (inflight, errors, hedges,
// latency for p99).
type shardClient struct {
	shard      int
	addr       string
	pool       *channelPool
	timeout    time.Duration
	hedgeAfter time.Duration // 0: hedging disabled

	inflight atomic.Int64
	errors   atomic.Int64
	hedges   atomic.Int64
	requests atomic.Int64
	healthy  atomic.Bool
	lastErr  atomic.Value // string
	lat      telemetry.Histogram
}

func newShardClient(shard int, sh Shard, timeout, hedgeAfter time.Duration) *shardClient {
	c := &shardClient{
		shard:      shard,
		addr:       sh.Addr,
		pool:       newChannelPool(dialAddr(sh.Addr)),
		timeout:    timeout,
		hedgeAfter: hedgeAfter,
	}
	c.healthy.Store(true)
	c.lastErr.Store("")
	return c
}

// unavailable wraps a transport-level failure so api.Classify maps it to
// 503 unavailable, keeping the shard and address in the message.
func (c *shardClient) unavailable(err error) error {
	return fmt.Errorf("shard %d (%s): %v (%w)", c.shard, c.addr, err, seqerr.ErrUnavailable)
}

// dialAddr is the host:port of a shard's http://host[:port] address.
func dialAddr(addr string) string {
	u, err := url.Parse(addr)
	switch {
	case err != nil:
		return addr
	case u.Port() != "":
		return u.Host
	}
	return net.JoinHostPort(u.Hostname(), "80")
}

// shardAccept asks a store node for frames where it has them (cells, rows,
// aggregate batches) and JSON for everything else; a node that does not
// speak frames answers JSON, which exchange decodes as well.
const shardAccept = api.FrameType + ", application/json"

// once runs a single exchange over a channel and reads the whole answer.
// An idempotent exchange rides an idle channel when there is one, and is
// sent once more, on a fresh channel, when that reused one fails before
// any byte of the answer: the node closed it while it idled and never saw
// the request. Any other exchange (a bulk) rides a fresh channel and is
// never sent twice. A channel that failed is closed, never reused.
func (c *shardClient) once(ctx context.Context, method, path string, body []byte, idempotent bool) (*shardResp, error) {
	req := api.ChannelRequest{Method: method, Target: path, Body: body}
	var hdr [8]string
	req.Header = append(hdr[:0], "Accept", shardAccept)
	if body != nil {
		req.Header = append(req.Header, "Content-Type", "application/json")
	}
	// Propagate the proxy request's identity to the shard: the request ID
	// (so shard logs and trace rings join to the front-door request) and the
	// traceparent (so the shard adopts our trace id instead of minting its
	// own root, and answers with its span summary).
	if tr := trace.FromContext(ctx); tr != nil {
		if id := tr.ID(); id != "" {
			req.Header = append(req.Header, trace.HeaderRequestID, id)
		}
		if tp := trace.Traceparent(tr.SpanContext()); tp != "" {
			req.Header = append(req.Header, trace.HeaderTraceparent, tp)
		}
	}
	for fresh := !idempotent; ; fresh = true {
		ch, reused, err := c.pool.get(ctx, fresh)
		if err != nil {
			return nil, err
		}
		resp, started, err := ch.roundTrip(ctx, &req)
		if err == nil {
			c.pool.put(ch)
			return &shardResp{status: resp.Status, header: resp.HTTPHeader(), body: resp.Body}, nil
		}
		ch.conn.Close()
		if !reused || started || ctx.Err() != nil {
			return nil, err
		}
	}
}

// do sends one request to the store node, hedging idempotent reads: when
// the first attempt is still silent after hedgeAfter (or failed outright),
// a second attempt launches and the first success wins. Both attempts run
// under the same per-request timeout, so a dead shard turns into a typed
// unavailable error within the configured deadline — never a hang. The
// winning response's cost headers are folded into the caller's ledger
// exactly once (losing attempts are discarded unread), keeping the
// proxy-side ledger equal to the sum of work actually returned.
func (c *shardClient) do(ctx context.Context, method, path string, body []byte, idempotent bool) (*shardResp, error) {
	c.inflight.Add(1)
	c.requests.Add(1)
	start := time.Now()
	defer func() {
		c.inflight.Add(-1)
		c.lat.Observe(time.Since(start))
	}()

	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()

	// Each attempt is one span on the caller's trace, tagged with its
	// outcome: "winner" (first successful response, carrying the shard's
	// ledger split), "loser" (a raced-out hedge duplicate), or "failed"
	// (transport error before any winner). A hedged attempt's span ends in
	// its own goroutine, so a loser that limps in after the winner is still
	// recorded on the trace.
	tr := trace.FromContext(ctx)
	spanName := "shard" + strconv.Itoa(c.shard) + pathOnly(path)
	var won atomic.Bool
	attempt := func(n int) (*shardResp, error) {
		sp := tr.StartSpan(spanName)
		sp.SetAttr("shard", c.shard)
		sp.SetAttr("addr", c.addr)
		sp.SetAttr("attempt", n)
		r, err := c.once(ctx, method, path, body, idempotent)
		switch {
		case err != nil && won.Load():
			sp.SetAttr("outcome", "loser")
		case err != nil:
			sp.SetAttr("outcome", "failed")
			sp.SetAttr("error", err.Error())
		case won.CompareAndSwap(false, true):
			sp.SetAttr("outcome", "winner")
			sp.SetAttr("status", r.status)
			// The shard's ledger split rides on the winning span: summing
			// disk_accesses over winner spans reproduces the proxy's
			// X-Cost-Disk-Accesses header exactly.
			cost := trace.ParseCostHeaders(r.header)
			sp.SetAttr("disk_accesses", cost.DiskAccesses)
			sp.SetAttr("rows_read", cost.RowsRead)
			sp.SetAttr("deltas_probed", cost.DeltasProbed)
		default:
			sp.SetAttr("outcome", "loser")
			sp.SetAttr("status", r.status)
		}
		sp.End()
		return r, err
	}

	if !idempotent || c.hedgeAfter <= 0 {
		// No second attempt can race this one, so it runs on the caller's
		// goroutine; ctx still carries the timeout that bounds a stall.
		r, err := attempt(1)
		if err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			}
			c.fail(err)
			return nil, c.unavailable(err)
		}
		c.finish(ctx, r)
		return r, nil
	}

	type result struct {
		resp *shardResp
		err  error
	}
	ch := make(chan result, 2)
	launch := func(n int) {
		go func() {
			r, err := attempt(n)
			ch <- result{r, err}
		}()
	}
	launch(1)
	hedge := time.NewTimer(c.hedgeAfter)
	defer hedge.Stop()
	hedgeC := hedge.C

	launched, failed := 1, 0
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				c.finish(ctx, r.resp)
				return r.resp, nil
			}
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
			// A failed first attempt converts the hedge into an
			// immediate retry; once no attempt can still win, give up.
			if launched < 2 {
				hedgeC = nil
				c.hedges.Add(1)
				launched++
				launch(launched)
				continue
			}
			if failed == launched {
				c.fail(firstErr)
				return nil, c.unavailable(firstErr)
			}
		case <-hedgeC:
			hedgeC = nil
			c.hedges.Add(1)
			launched++
			launch(launched)
		case <-ctx.Done():
			c.fail(ctx.Err())
			return nil, c.unavailable(ctx.Err())
		}
	}
}

// finish records a successful exchange: the shard is healthy, its reported
// cost snapshot folds into the proxy request's ledger, and its span summary
// (X-Trace-Spans, bounded) lands on the trace as shard-prefixed child spans
// — queue/eval timing from inside the store node, joined under the one
// distributed trace id.
func (c *shardClient) finish(ctx context.Context, resp *shardResp) {
	c.healthy.Store(true)
	c.lastErr.Store("")
	if resp.status >= 500 {
		c.errors.Add(1)
	}
	if led := trace.LedgerFrom(ctx); led != nil {
		led.AddSnapshot(trace.ParseCostHeaders(resp.header))
	}
	if tr := trace.FromContext(ctx); tr != nil {
		prefix := "shard" + strconv.Itoa(c.shard) + "."
		for _, sp := range trace.ParseSpanHeader(resp.header.Get(trace.HeaderSpans)) {
			// Remote offsets are relative to the shard's own trace start;
			// keep them as a remote_offset attribute rather than pretending
			// they share this trace's clock.
			tr.AddSpan(trace.SpanSnapshot{
				Name:       prefix + sp.Name,
				DurationUs: sp.DurationUs,
				Attrs: []trace.Attr{
					{Key: "shard", Value: c.shard},
					{Key: "remote", Value: true},
					{Key: "remote_offset_us", Value: sp.StartOffsetUs},
				},
			})
		}
	}
}

// pathOnly strips the query string from a request path: span names are
// served verbatim on /v1/debug/traces, and query strings can carry customer
// labels that must not leak into debug output.
func pathOnly(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		return path[:i]
	}
	return path
}

// fail records a transport-level failure.
func (c *shardClient) fail(err error) {
	c.errors.Add(1)
	c.healthy.Store(false)
	if err != nil {
		c.lastErr.Store(err.Error())
	}
}

// remoteError is a store node's HTTP-level verdict: the node answered,
// classified the request, and returned an error envelope. Distinct from
// transport failures (which become seqerr.ErrUnavailable): a remote 400
// means the fragment was wrong, not that the shard is down, and the proxy
// propagates the node's status and code verbatim.
type remoteError struct {
	status int
	code   string
	msg    string
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("%s (HTTP %d): %s", e.code, e.status, e.msg)
}

// asRemote extracts a remoteError from an error chain.
func asRemote(err error) (*remoteError, bool) {
	var re *remoteError
	if errors.As(err, &re) {
		return re, true
	}
	return nil, false
}

// decodeRemote turns a non-2xx shard response into a remoteError,
// preserving the envelope's code and message when the body parses.
func decodeRemote(resp *shardResp) *remoteError {
	var env api.ErrorEnvelope
	if json.Unmarshal(resp.body, &env) == nil && env.Error.Code != "" {
		return &remoteError{status: resp.status, code: env.Error.Code, msg: env.Error.Message}
	}
	msg := string(resp.body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return &remoteError{status: resp.status, code: api.CodeInternal, msg: msg}
}

// exchange is one typed exchange with the store node: body (when non-nil)
// is marshaled, a 2xx response decodes into out — from a frame when the
// node answered with one, from JSON otherwise — and a non-2xx response
// returns the node's verdict as a *remoteError.
func (c *shardClient) exchange(ctx context.Context, method, path string, body, out interface{}, idempotent bool) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return err
		}
	}
	resp, err := c.do(ctx, method, path, raw, idempotent)
	if err != nil {
		return err
	}
	if resp.status/100 != 2 {
		return decodeRemote(resp)
	}
	if out == nil {
		return nil
	}
	if api.IsFrame(resp.header.Get("Content-Type")) {
		err = api.DecodeFrame(resp.body, out)
	} else {
		err = json.Unmarshal(resp.body, out)
	}
	if err != nil {
		return fmt.Errorf("shard %d (%s): undecodable %s response: %v", c.shard, c.addr, path, err)
	}
	return nil
}

// check probes the store node's /v1/healthz with a short deadline and
// updates the health gauge. Returns nil when the node answered 200.
func (c *shardClient) check(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	resp, err := c.once(ctx, http.MethodGet, "/v1/healthz", nil, true)
	if err != nil {
		c.fail(err)
		return c.unavailable(err)
	}
	if resp.status != http.StatusOK {
		err := fmt.Errorf("healthz returned %d", resp.status)
		c.fail(err)
		return c.unavailable(err)
	}
	c.healthy.Store(true)
	c.lastErr.Store("")
	return nil
}
