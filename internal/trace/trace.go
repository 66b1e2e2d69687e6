// Package trace is the request-scoped observability layer: context-propagated
// spans, request IDs, and a per-request cost ledger that attributes the
// paper's cost model — disk accesses, rows read, pages touched — to the
// individual query that incurred them. Everything is stdlib-only and built
// for the serving hot path: the ledger is a handful of atomics with nil-safe
// methods, so instrumented code never branches on "is tracing on?", and an
// untraced request pays a single pointer-typed context lookup.
//
// The serving layer creates one Trace per HTTP request (see
// internal/server), threads it through the request context into the query
// engine's workers, and retires the finished TraceSnapshot into a Ring
// served at /v1/debug/traces. The ledger's DiskAccesses counter is what the
// X-Cost-Disk-Accesses response header reports — the live verification of
// the paper's one-access-per-cell claim (§5).
package trace

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// --- Request IDs -----------------------------------------------------------

// mintIDs returns id and 16·words fresh hex characters for the trace's
// own ids, minting a 16-hex request id in front of them when id is ""
// (the client sent none, or one SanitizeRequestID refused): all of it
// one string, one allocation. IDs name requests and guard nothing, so they
// come from the runtime's per-thread generator: no system call, no
// scratch buffer.
func mintIDs(id string, words int) (string, string) {
	const digits = "0123456789abcdef"
	var buf [64]byte
	if id == "" {
		words++
	}
	b := buf[:16*words]
	for w := 0; w < words; w++ {
		v := rand.Uint64()
		for k := 0; k < 16; k++ {
			b[16*w+k] = digits[v>>(60-4*k)&0xf]
		}
	}
	ids := string(b)
	if id == "" {
		return ids[:16], ids[16:]
	}
	return id, ids
}

// MaxRequestIDLen bounds the length of a client-supplied request ID.
const MaxRequestIDLen = 64

// SanitizeRequestID validates a client-supplied X-Request-Id: only
// [A-Za-z0-9._-] and at most MaxRequestIDLen characters survive; anything
// else returns "" (the caller then generates a fresh ID). Keeping the
// charset tight means IDs are safe to echo into headers, logs and JSON
// without escaping.
func SanitizeRequestID(s string) string {
	if len(s) == 0 || len(s) > MaxRequestIDLen {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}

// --- Cost ledger -----------------------------------------------------------

// Ledger attributes the paper's cost model to one request. All counters are
// atomics and every method is nil-safe, so instrumented code (a store
// node's point reads, the query engine's workers) adds unconditionally;
// with no trace on the context the adds simply vanish.
//
// DiskAccesses counts U-row fetches in the paper's block model (one row =
// one block = one access, matching matio.Stats.RowReads); PagesTouched
// counts the distinct checksummed v2 pages those fetches hit, which is what
// an OS page cache actually sees.
type Ledger struct {
	rowsRead     atomic.Int64
	pagesTouched atomic.Int64
	deltasProbed atomic.Int64
	workerChunks atomic.Int64
	diskAccesses atomic.Int64
	rowsWritten  atomic.Int64
	planHits     atomic.Int64
	planMisses   atomic.Int64
}

// AddRowsRead records n row reconstructions served to the request.
func (l *Ledger) AddRowsRead(n int64) {
	if l != nil {
		l.rowsRead.Add(n)
	}
}

// AddPagesTouched records n distinct backing pages read.
func (l *Ledger) AddPagesTouched(n int64) {
	if l != nil {
		l.pagesTouched.Add(n)
	}
}

// AddDeltasProbed records n SVDD outlier deltas visited.
func (l *Ledger) AddDeltasProbed(n int64) {
	if l != nil {
		l.deltasProbed.Add(n)
	}
}

// AddWorkerChunks records n row chunks dispatched to query workers.
func (l *Ledger) AddWorkerChunks(n int64) {
	if l != nil {
		l.workerChunks.Add(n)
	}
}

// AddDiskAccesses records n simulated disk accesses (U-row fetches).
func (l *Ledger) AddDiskAccesses(n int64) {
	if l != nil {
		l.diskAccesses.Add(n)
	}
}

// AddRowsWritten records n rows ingested by the request (the write-path
// counterpart of AddRowsRead; bulk ingestion charges one per appended row).
func (l *Ledger) AddRowsWritten(n int64) {
	if l != nil {
		l.rowsWritten.Add(n)
	}
}

// PlanHit records one query-plan cache hit (the request reused a memoized
// V panel / run schedule instead of rebuilding it).
func (l *Ledger) PlanHit() {
	if l != nil {
		l.planHits.Add(1)
	}
}

// PlanMiss records one query-plan cache miss (the plan was built from
// scratch for this request).
func (l *Ledger) PlanMiss() {
	if l != nil {
		l.planMisses.Add(1)
	}
}

// DiskAccesses returns the disk accesses charged so far (0 on nil).
func (l *Ledger) DiskAccesses() int64 {
	if l == nil {
		return 0
	}
	return l.diskAccesses.Load()
}

// LedgerSnapshot is the JSON view of a Ledger, embedded in every trace
// entry on /v1/debug/traces.
type LedgerSnapshot struct {
	RowsRead     int64 `json:"rows_read"`
	PagesTouched int64 `json:"pages_touched"`
	DeltasProbed int64 `json:"deltas_probed"`
	WorkerChunks int64 `json:"worker_chunks"`
	DiskAccesses int64 `json:"disk_accesses"`
	RowsWritten  int64 `json:"rows_written"`
	PlanHits     int64 `json:"plan_hits"`
	PlanMisses   int64 `json:"plan_misses"`
}

// Snapshot captures the ledger (zero value on nil).
func (l *Ledger) Snapshot() LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	return LedgerSnapshot{
		RowsRead:     l.rowsRead.Load(),
		PagesTouched: l.pagesTouched.Load(),
		DeltasProbed: l.deltasProbed.Load(),
		WorkerChunks: l.workerChunks.Load(),
		DiskAccesses: l.diskAccesses.Load(),
		RowsWritten:  l.rowsWritten.Load(),
		PlanHits:     l.planHits.Load(),
		PlanMisses:   l.planMisses.Load(),
	}
}

// --- Spans and traces ------------------------------------------------------

// Attr is one span attribute. Values must be JSON-encodable; keep them to
// strings and numbers.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanSnapshot is one completed span in a trace entry. Offsets are relative
// to the trace start, so a reader can reconstruct the timeline.
type SpanSnapshot struct {
	Name          string `json:"name"`
	StartOffsetUs int64  `json:"start_offset_us"`
	DurationUs    int64  `json:"duration_us"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// Span is an in-flight span. Create with Trace.StartSpan (or the package
// StartSpan over a context), finish with End. All methods are nil-safe, so
// untraced code paths cost nothing beyond the nil check.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	attrs []Attr
}

// SetAttr attaches an attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
}

// End completes the span and records it on its trace.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	end := time.Now()
	s.tr.record(SpanSnapshot{
		Name:          s.name,
		StartOffsetUs: s.start.Sub(s.tr.start).Microseconds(),
		DurationUs:    end.Sub(s.start).Microseconds(),
		Attrs:         s.attrs,
	})
}

// Trace is one request's trace: identity, timing, completed spans and the
// cost ledger. Safe for concurrent use — workers on other goroutines may
// end spans and bump the ledger while the handler runs.
type Trace struct {
	// Ledger accumulates the request's costs; reachable via LedgerFrom.
	Ledger Ledger

	id           string
	name         string
	traceID      string // 32 hex: shared by every hop of a distributed request
	spanID       string // 16 hex: this process's span within the trace
	parentSpanID string // 16 hex when adopted from an inbound traceparent
	start        time.Time

	mu    sync.Mutex
	spans []SpanSnapshot
}

// New starts a root trace with a fresh trace id; an empty request id is
// replaced by a fresh 16-hex one. name is the endpoint pattern (never the
// raw URL: the traces endpoint serves these verbatim, and query strings can
// carry customer labels that must not leak into debug output).
func New(id, name string) *Trace {
	id, ids := mintIDs(id, 3)
	return &Trace{
		id: id, name: name,
		traceID: ids[:32], spanID: ids[32:],
		start: time.Now(),
	}
}

// NewChild starts a trace that joins an existing distributed trace: it
// adopts the parent's trace id, records the parent span id, and mints a
// fresh span id for this process (and, like New, a request id when id is
// empty). The server uses this when a request arrives with a valid
// traceparent header (typically from the proxy), so shard-side spans and
// ledger splits land under the caller's trace id.
func NewChild(id, name string, parent SpanContext) *Trace {
	if !parent.Valid() {
		return New(id, name)
	}
	id, spanID := mintIDs(id, 1)
	return &Trace{
		id: id, name: name,
		traceID: parent.TraceID, spanID: spanID, parentSpanID: parent.SpanID,
		start: time.Now(),
	}
}

// ID returns the request ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// TraceID returns the distributed trace id ("" on nil).
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SpanContext returns this trace's position in the distributed trace — the
// value a client propagates downstream as the parent of outbound calls.
func (t *Trace) SpanContext() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: t.traceID, SpanID: t.spanID}
}

// StartSpan opens a named child span. Nil-safe: a nil trace returns a nil
// span whose methods are no-ops.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, start: time.Now()}
}

// AddSpan records an already-completed span on the trace — the proxy uses
// this to fold a shard's decoded X-Trace-Spans summary into the front-door
// trace. Nil-safe.
func (t *Trace) AddSpan(s SpanSnapshot) {
	if t == nil {
		return
	}
	t.record(s)
}

// Spans returns a copy of the spans completed so far. The server uses this
// at header-commit time to render the X-Trace-Spans summary while the trace
// is still open.
func (t *Trace) Spans() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanSnapshot, len(t.spans))
	copy(out, t.spans)
	return out
}

func (t *Trace) record(s SpanSnapshot) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// TraceSnapshot is one finished request on /v1/debug/traces.
type TraceSnapshot struct {
	RequestID    string         `json:"request_id"`
	TraceID      string         `json:"trace_id"`
	SpanID       string         `json:"span_id"`
	ParentSpanID string         `json:"parent_span_id,omitempty"`
	Name         string         `json:"name"`
	Start        time.Time      `json:"start"`
	DurationUs   int64          `json:"duration_us"`
	Status       int            `json:"status"`
	Cost         LedgerSnapshot `json:"cost"`
	Spans        []SpanSnapshot `json:"spans,omitempty"`
}

// Finish seals the trace with the response status and returns its snapshot
// (nil-safe; a nil trace yields nil).
func (t *Trace) Finish(status int) *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]SpanSnapshot, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	return &TraceSnapshot{
		RequestID:    t.id,
		TraceID:      t.traceID,
		SpanID:       t.spanID,
		ParentSpanID: t.parentSpanID,
		Name:         t.name,
		Start:        t.start,
		DurationUs:   time.Since(t.start).Microseconds(),
		Status:       status,
		Cost:         t.Ledger.Snapshot(),
		Spans:        spans,
	}
}

// --- Context plumbing ------------------------------------------------------

type traceKey struct{}
type ledgerKey struct{}

// NewContext returns ctx carrying tr.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// WithLedger returns ctx carrying a bare cost ledger without a full trace
// — the facade's WithCost path, for embedders who want attribution but not
// spans. A full trace on the context takes precedence.
func WithLedger(ctx context.Context, l *Ledger) context.Context {
	return context.WithValue(ctx, ledgerKey{}, l)
}

// LedgerFrom returns the context's cost ledger — the trace's when traced,
// else a bare WithLedger one — or nil when the request is untraced. The
// nil result is directly usable: every Ledger method accepts a nil
// receiver.
func LedgerFrom(ctx context.Context) *Ledger {
	if tr := FromContext(ctx); tr != nil {
		return &tr.Ledger
	}
	l, _ := ctx.Value(ledgerKey{}).(*Ledger)
	return l
}

// StartSpan opens a span on the context's trace (a no-op nil span when the
// context is untraced).
func StartSpan(ctx context.Context, name string) *Span {
	return FromContext(ctx).StartSpan(name)
}
