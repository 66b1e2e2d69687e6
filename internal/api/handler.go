package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"seqstore/internal/query"
	"seqstore/internal/seqerr"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// Default batch-endpoint bounds; see Config.
const (
	DefaultMaxBatchCells = 10000
	DefaultMaxBatchRows  = 1024
	// DefaultMaxBatchQueries bounds one /v1/aggregate/batch request. Each
	// query is a full aggregate evaluation, so the default is conservative.
	DefaultMaxBatchQueries = 64
)

// maxAggBody bounds an aggregate or aggregate-batch request body. Index
// specs are compact (ranges, strides); a megabyte of them is a malformed
// request, not a workload.
const maxAggBody = 1 << 20

// TracesPattern is the trace-ring endpoint; it is excluded from its own
// ring so inspecting traces doesn't churn them.
const TracesPattern = "/v1/debug/traces"

// Config is what every /v1 process configures about its HTTP layer,
// whatever backend is behind it. The zero value is usable.
type Config struct {
	// MaxBatchCells, MaxBatchRows and MaxBatchQueries bound one /v1/cells,
	// /v1/rows and /v1/aggregate/batch request; 0 selects the defaults.
	MaxBatchCells   int
	MaxBatchRows    int
	MaxBatchQueries int
	// Logger receives the structured request log. nil silences request
	// logging (traces and metrics still work).
	Logger *slog.Logger
	// SlowQuery is the latency threshold above which a request is logged at
	// Warn with its full cost ledger; 0 disables the slow-query log.
	SlowQuery time.Duration
	// TraceBuffer is the capacity of the /v1/debug/traces ring; 0 selects
	// trace.DefaultRingSize.
	TraceBuffer int
	// SLOObjective is the per-endpoint latency objective surfaced through
	// /v1/metrics (JSON and Prometheus) and /v1/healthz; 0 disables SLO
	// reporting. SLOTarget is the fraction of requests that must meet the
	// objective; 0 selects 0.99.
	SLOObjective time.Duration
	SLOTarget    float64
}

// WithDefaults fills in the documented defaults.
func (c Config) WithDefaults() Config {
	if c.MaxBatchCells <= 0 {
		c.MaxBatchCells = DefaultMaxBatchCells
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = DefaultMaxBatchRows
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = DefaultMaxBatchQueries
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 0.99
	}
	return c
}

// Handler is the one HTTP layer of the /v1 contract: routing, the request
// middleware (request id, trace, cost headers, 405, trace ring, request
// log), query-parameter and body parsing, batch limits, selection
// validation, rendering, and the metrics, healthz and traces endpoints.
// Everything that differs between a store node and the proxy is behind its
// Backend. It is safe for concurrent use.
type Handler struct {
	b    Backend
	cfg  Config
	tel  *telemetry.Registry
	mux  *http.ServeMux
	ring *trace.Ring
}

// NewHandler serves b under /v1. tel is the registry the endpoint
// histograms go into; the backend registers its own gauges there before or
// after.
func NewHandler(b Backend, tel *telemetry.Registry, cfg Config) *Handler {
	cfg = cfg.WithDefaults()
	h := &Handler{
		b:    b,
		cfg:  cfg,
		tel:  tel,
		mux:  http.NewServeMux(),
		ring: trace.NewRing(cfg.TraceBuffer),
	}
	if cfg.SLOObjective > 0 {
		tel.SetSLO(float64(cfg.SLOObjective)/float64(time.Millisecond), cfg.SLOTarget)
	}
	h.handleMethod("/v1/info", http.MethodGet, h.info)
	h.handleMethod("/v1/cell", http.MethodGet, h.cell)
	h.handleMethod("/v1/cells", http.MethodGet, h.cells)
	h.handleMethod("/v1/row", http.MethodGet, h.row)
	h.handleMethod("/v1/rows", http.MethodGet, h.rows)
	h.handleMethod("/v1/aggregate", http.MethodPost, h.aggregate)
	h.handleMethod("/v1/aggregate/batch", http.MethodPost, h.aggregateBatch)
	// Registered on every backend, so a read-only one answers a clear 403
	// instead of a 404.
	h.handleMethod("/v1/bulk", http.MethodPost, h.bulk)
	h.handleMethod("/v1/metrics", http.MethodGet, h.metrics)
	h.handleMethod("/v1/healthz", http.MethodGet, h.healthz)
	h.handleMethod(TracesPattern, http.MethodGet, h.traces)
	h.mux.HandleFunc(ChannelPath, h.channel)
	return h
}

// ServeHTTP dispatches to the instrumented endpoints.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// endpoint answers one parsed request: a body for a 200, or an error (the
// body is then ignored).
type endpoint func(r *http.Request) (interface{}, error)

// promText is an endpoint result that is Prometheus exposition text, not a
// JSON body.
type promText []byte

// handleMethod registers an instrumented single-verb endpoint: every request is
// counted, timed and traced. The middleware assigns (or echoes) a request
// ID, threads a trace with its cost ledger through the request context into
// the backend, writes the X-Request-Id and X-Cost-* response headers,
// retires the finished trace into the /v1/debug/traces ring, and emits the
// structured request log. Other verbs get 405 with an Allow header;
// responses with status ≥ 400 count as errors.
func (h *Handler) handleMethod(pattern, method string, fn endpoint) {
	ep := h.tel.Endpoint(pattern)
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ep.Requests.Inc()

		// A well-formed client request id is echoed; the trace mints a fresh
		// one otherwise. The trace is named by the endpoint pattern, never
		// the raw URL: query strings can carry customer labels, and
		// /v1/debug/traces serves trace names verbatim. A valid inbound
		// traceparent (the proxy hop) is adopted so this process's spans
		// join the caller's distributed trace; anything malformed degrades
		// to a fresh root.
		id := trace.SanitizeRequestID(r.Header.Get(trace.HeaderRequestID))
		parent, hasParent := trace.ParseTraceparent(r.Header.Get(traceparentKey))
		var tr *trace.Trace
		if hasParent {
			tr = trace.NewChild(id, pattern, parent)
		} else {
			tr = trace.New(id, pattern)
		}
		r = r.WithContext(trace.NewContext(r.Context(), tr))

		sw := &statusWriter{ResponseWriter: w, tr: tr, traced: hasParent}
		if r.Method != method {
			sw.Header().Set("Allow", method)
			WriteErrorDetail(sw, http.StatusMethodNotAllowed, ErrorDetail{
				Code:      CodeMethodNotAllowed,
				Message:   fmt.Sprintf("method %s not allowed; use %s", r.Method, method),
				RequestID: tr.ID(),
			})
		} else if body, err := fn(r); err != nil {
			WriteError(sw, r, err)
		} else if text, ok := body.(promText); ok {
			sw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			sw.WriteHeader(http.StatusOK)
			sw.Write(text)
		} else {
			// The one place a response's encoding is chosen: a frame for a
			// caller that names FrameType in Accept (the proxy's shard
			// client) and a body that has one, JSON for everything else.
			writeBody(sw, http.StatusOK, body, acceptsFrame(r.Header["Accept"]))
		}

		elapsed := time.Since(start)
		ep.Latency.Observe(elapsed)
		if sw.status >= http.StatusBadRequest {
			ep.Errors.Inc()
		}
		snap := tr.Finish(sw.status)
		if pattern != TracesPattern {
			h.ring.Put(snap)
		}
		h.logRequest(pattern, snap, elapsed)
	})
}

// traceparentKey is the canonical form of the traceparent header, so the
// per-request lookup does not canonicalize it again.
var traceparentKey = http.CanonicalHeaderKey(trace.HeaderTraceparent)

// logRequest emits one structured line per request. Normal traffic logs at
// Debug (cheap to filter out); requests above the slow-query threshold log
// at Warn and 5xx responses at Error, both with the full cost ledger and —
// behind the proxy — the shards whose responses formed the answer, so an
// end-to-end outlier is greppable by trace id across every process it
// touched. The attributes are built only for a line that is emitted.
func (h *Handler) logRequest(pattern string, snap *trace.TraceSnapshot, elapsed time.Duration) {
	logger := h.cfg.Logger
	slow := h.cfg.SlowQuery > 0 && elapsed >= h.cfg.SlowQuery
	level := slog.LevelDebug
	msg := "request"
	switch {
	case snap.Status >= http.StatusInternalServerError:
		level = slog.LevelError
		msg = "request failed"
	case slow:
		level = slog.LevelWarn
		msg = "slow query"
	}
	if !logger.Enabled(context.Background(), level) {
		return
	}
	args := []any{
		"request_id", snap.RequestID,
		"endpoint", pattern,
		"status", snap.Status,
		"duration_ms", float64(elapsed.Microseconds()) / 1e3,
		"trace_id", snap.TraceID,
	}
	if level >= slog.LevelWarn {
		c := snap.Cost
		args = append(args,
			"disk_accesses", c.DiskAccesses,
			"rows_read", c.RowsRead,
			"pages_touched", c.PagesTouched,
			"deltas_probed", c.DeltasProbed,
			"worker_chunks", c.WorkerChunks,
		)
		if shards := winningShards(snap); len(shards) > 0 {
			args = append(args, "shards", shards)
		}
	}
	logger.Log(context.Background(), level, msg, args...)
}

// winningShards extracts the distinct shard numbers whose attempts won, in
// ascending order, from the spans the proxy's shard client records (attrs
// "shard" and "outcome"). A store node's trace has none.
func winningShards(snap *trace.TraceSnapshot) []int {
	seen := map[int]bool{}
	for _, sp := range snap.Spans {
		shard, won := -1, false
		for _, a := range sp.Attrs {
			switch a.Key {
			case "shard":
				if v, ok := a.Value.(int); ok {
					shard = v
				}
			case "outcome":
				won = a.Value == "winner"
			}
		}
		if won && shard >= 0 {
			seen[shard] = true
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// statusWriter records the status code written so the instrumentation can
// classify the response after the fact, and sets the request's trace
// headers exactly once, immediately before the status line is committed —
// the last moment response headers can still be set. Every response is
// buffered and committed in one WriteHeader, so the ledger is final by
// then. The full X-Cost-* set is emitted so a proxy can fold this
// process's ledger into its own; traced callers (the proxy) also get a
// bounded summary of this process's spans, so the front-door trace ring
// can show shard-side timing under the one distributed trace id.
type statusWriter struct {
	http.ResponseWriter
	status int
	tr     *trace.Trace
	traced bool      // the request carried a valid traceparent
	id     [1]string // the X-Request-Id value, held here so it is not allocated
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		hdr := w.Header()
		w.id[0] = w.tr.ID()
		hdr[trace.HeaderRequestID] = w.id[:]
		trace.EncodeCostHeaders(hdr, w.tr.Ledger.Snapshot())
		if w.traced {
			if spans := trace.EncodeSpanHeader(w.tr.Spans()); spans != "" {
				hdr[trace.HeaderSpans] = []string{spans}
			}
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// --- Reads -----------------------------------------------------------------

func (h *Handler) info(r *http.Request) (interface{}, error) {
	return h.b.Info(r.Context())
}

// cell answers /v1/cell?i=42&j=180, or the label-addressed form
// /v1/cell?row=GHI+Inc.&col=We, as a batch of one.
func (h *Handler) cell(r *http.Request) (interface{}, error) {
	q := r.URL.RawQuery
	req := CellRequest{Row: queryValue(q, "row"), Col: queryValue(q, "col")}
	if !req.ByLabel() {
		var err1, err2 error
		req.I, err1 = strconv.Atoi(queryValue(q, "i"))
		req.J, err2 = strconv.Atoi(queryValue(q, "j"))
		if err1 != nil || err2 != nil {
			return nil, Invalid("cell needs integer i and j (or label row and col) parameters")
		}
	}
	cells, err := h.b.Cells(r.Context(), []CellRequest{req})
	if err != nil {
		return nil, err
	}
	return &cells[0], nil
}

// cells answers a batch of cell lookups in one request:
// /v1/cells?at=5:100,7:200 (repeated at= parameters also accepted),
// amortizing per-request HTTP overhead across many reconstructions.
func (h *Handler) cells(r *http.Request) (interface{}, error) {
	var reqs []CellRequest
	for q := r.URL.RawQuery; ; {
		spec, rest, ok := nextQueryValue(q, "at")
		if !ok {
			break
		}
		q = rest
		for more := true; more; {
			var part string
			part, spec, more = strings.Cut(spec, ",")
			part = strings.TrimSpace(part)
			is, js, ok := strings.Cut(part, ":")
			if !ok {
				return nil, Invalid("bad cell %q: want i:j", part)
			}
			i, err1 := strconv.Atoi(strings.TrimSpace(is))
			j, err2 := strconv.Atoi(strings.TrimSpace(js))
			if err1 != nil || err2 != nil {
				return nil, Invalid("bad cell %q: want integer i:j", part)
			}
			reqs = append(reqs, CellRequest{I: i, J: j})
		}
	}
	if len(reqs) == 0 {
		return nil, Invalid("cells needs at=i:j[,i:j...] parameters")
	}
	if len(reqs) > h.cfg.MaxBatchCells {
		return nil, Invalid("batch of %d cells exceeds limit %d", len(reqs), h.cfg.MaxBatchCells)
	}
	cells, err := h.b.Cells(r.Context(), reqs)
	if err != nil {
		return nil, err
	}
	return CellsResponse{Count: len(cells), Cells: cells}, nil
}

// row answers /v1/row?i=42 as a batch of one.
func (h *Handler) row(r *http.Request) (interface{}, error) {
	i, err := strconv.Atoi(queryValue(r.URL.RawQuery, "i"))
	if err != nil {
		return nil, Invalid("row needs an integer i parameter")
	}
	rows, err := h.b.Rows(r.Context(), []int{i})
	if err != nil {
		return nil, err
	}
	return &rows[0], nil
}

// nextQueryValue is url.Values over the parsed raw query without building
// the map: the next value of key and the query after it, under
// url.ParseQuery's rules — pairs split on '&', a pair holding ';' or
// failing to unescape is skipped.
func nextQueryValue(rawQuery, key string) (value, rest string, ok bool) {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v, rawQuery, true
		}
	}
	return "", "", false
}

// queryValue is url.Values.Get over the raw query: the first value of key.
func queryValue(rawQuery, key string) string {
	v, _, _ := nextQueryValue(rawQuery, key)
	return v
}

// rows reconstructs a batch of rows: /v1/rows?i=0:8,17 with the same
// index-spec syntax as aggregate selections (the spec must be non-empty —
// an unbounded "all rows" response is refused). The spec is resolved
// against Backend.Dims and the batch limit before its indices are
// allocated.
func (h *Handler) rows(r *http.Request) (interface{}, error) {
	spec := queryValue(r.URL.RawQuery, "i")
	if strings.TrimSpace(spec) == "" {
		return nil, Invalid("rows needs an i index spec, e.g. i=0:8,17")
	}
	n, _, err := h.b.Dims(r.Context())
	if err != nil {
		return nil, err
	}
	sp, err := query.ScanIndexSpec(spec, n)
	if err != nil {
		return nil, specError("i", err)
	}
	if sp.Len() == 0 {
		return nil, Invalid("rows selection is empty")
	}
	if sp.Len() > h.cfg.MaxBatchRows {
		return nil, Invalid("batch of %d rows exceeds limit %d", sp.Len(), h.cfg.MaxBatchRows)
	}
	rows, err := h.b.Rows(r.Context(), sp.Indices())
	if err != nil {
		return nil, err
	}
	return RowsResponse{Count: len(rows), Rows: rows}, nil
}

// --- Aggregates ------------------------------------------------------------

// parseAggQuery resolves an AggregateRequest's (f, rows, cols) against the
// n×m shape. F defaults to "avg"; empty specs select full axes. Scanning a
// spec refuses every index outside its axis, so what is left to check is
// that the selection lists a cell; nothing is listed row by row. A
// malformed request is an Invalid; an out-of-range or empty selection keeps
// its own class.
func parseAggQuery(req AggregateRequest, n, m int) (AggregateQuery, error) {
	f := req.F
	if f == "" {
		f = "avg"
	}
	agg, err := query.ParseAggregate(f)
	if err != nil {
		return AggregateQuery{}, Invalid("%v", err)
	}
	rows, err := query.ScanIndexSpec(req.Rows, n)
	if err != nil {
		return AggregateQuery{}, specError("rows", err)
	}
	cols, err := query.ScanIndexSpec(req.Cols, m)
	if err != nil {
		return AggregateQuery{}, specError("cols", err)
	}
	if rows.Len() == 0 || cols.Len() == 0 {
		return AggregateQuery{}, query.ErrEmptySelection
	}
	return AggregateQuery{
		F: f, Agg: agg, Rows: rows, Cols: cols,
		Partial: req.Partial, Explain: req.Explain,
	}, nil
}

// specError names the parameter of an index spec that failed to parse: an
// index outside the axis keeps its out-of-range class, anything else is a
// malformed request.
func specError(param string, err error) error {
	if errors.Is(err, seqerr.ErrOutOfRange) {
		return fmt.Errorf("%s: %w", param, err)
	}
	return Invalid("%s: %v", param, err)
}

// decodeAggBody decodes a bounded JSON request body into out.
func decodeAggBody(r *http.Request, what string, out interface{}) error {
	// No ResponseWriter: the middleware's wrapper hides the server's
	// close-after-oversize hook anyway; the read error is what matters.
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxAggBody))
	if err := dec.Decode(out); err != nil {
		return Invalid("%s: malformed JSON body: %v", what, err)
	}
	return nil
}

// aggregate is POST /v1/aggregate with one AggregateRequest body — the
// same item schema /v1/aggregate/batch takes — answered as a batch of one,
// whose failure is the request's.
func (h *Handler) aggregate(r *http.Request) (interface{}, error) {
	var req AggregateRequest
	if err := decodeAggBody(r, "aggregate", &req); err != nil {
		return nil, err
	}
	out, err := h.evaluate(r.Context(), []AggregateRequest{req}, req.Partial, false)
	if err != nil {
		return nil, err
	}
	if out[0].Err != nil {
		return nil, out[0].Err
	}
	return out[0].Response, nil
}

// aggregateBatch evaluates N aggregates in one request. The body is
// {"queries":[{"f":"sum","rows":"0:64","cols":"0:24"},...]}; the response
// mirrors the /v1/bulk per-item idiom — one bad query costs itself a
// non-200 item without sinking the batch:
// {"took":<ms>,"errors":<bool>,"items":[{"status":200,"f":"sum",...,"value":V},...]}.
func (h *Handler) aggregateBatch(r *http.Request) (interface{}, error) {
	start := time.Now()
	var req BatchAggregateRequest
	if err := decodeAggBody(r, "aggregate/batch", &req); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, Invalid(`aggregate/batch needs a non-empty "queries" array`)
	}
	if len(req.Queries) > h.cfg.MaxBatchQueries {
		return nil, Invalid("batch of %d queries exceeds limit %d", len(req.Queries), h.cfg.MaxBatchQueries)
	}
	out, err := h.evaluate(r.Context(), req.Queries, req.Partial, req.Explain)
	if err != nil {
		return nil, err
	}
	resp := BatchAggregateResponse{Items: make([]BatchAggregateItem, len(out))}
	for qi, res := range out {
		resp.Items[qi] = res.item()
		resp.Errors = resp.Errors || resp.Items[qi].Status != http.StatusOK
	}
	resp.Took = time.Since(start).Milliseconds()
	return resp, nil
}

// evaluate answers an aggregate request's queries in order: each is
// resolved against Backend.Dims, and the valid ones go to the backend as
// one batch with the request-wide flags folded in. A query that fails to
// parse or validate fails alone, as one the backend fails does.
func (h *Handler) evaluate(ctx context.Context, queries []AggregateRequest, partial, explain bool) ([]AggregateResult, error) {
	n, m, err := h.b.Dims(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]AggregateResult, len(queries))
	batch := BatchQuery{Partial: partial}
	var slot []int // out index of each query handed to the backend
	for qi, aq := range queries {
		q, err := parseAggQuery(aq, n, m)
		if err != nil {
			out[qi].Err = err
			continue
		}
		q.Partial = partial
		q.Explain = q.Explain || explain
		batch.Queries = append(batch.Queries, q)
		slot = append(slot, qi)
	}
	if len(batch.Queries) > 0 {
		res, err := h.b.AggregateBatch(ctx, batch)
		if err != nil {
			return nil, err
		}
		for k, r := range res {
			out[slot[k]] = r
		}
	}
	return out, nil
}

// --- Writes ----------------------------------------------------------------

func (h *Handler) bulk(r *http.Request) (interface{}, error) {
	start := time.Now()
	resp, err := h.b.Bulk(r.Context(), r.Body)
	if err != nil {
		return nil, err
	}
	for _, it := range resp.Items {
		if it.Create.Status != http.StatusCreated {
			resp.Errors = true
		}
	}
	resp.Took = time.Since(start).Milliseconds()
	return resp, nil
}

// --- Metrics, health, traces -----------------------------------------------

// metrics serves the metrics snapshot: JSON by default, ?format=prom for
// Prometheus text exposition format 0.0.4. Either view is this layer's
// registry (endpoint histograms, runtime, SLO, the gauges the backend
// registered) followed by the backend's own part. ?scope= is "" (this
// process) or "cluster"; anything else is refused rather than answered
// with this process's numbers.
func (h *Handler) metrics(r *http.Request) (interface{}, error) {
	q := r.URL.Query()
	req := MetricsRequest{Scope: q.Get("scope"), Prom: q.Get("format") == "prom"}
	if req.Scope != "" && req.Scope != "cluster" {
		return nil, Invalid(`unknown scope %q: accepted values are "cluster" or none`, req.Scope)
	}
	own, err := h.b.Metrics(r.Context(), req)
	if err != nil {
		return nil, err
	}
	if req.Prom {
		if own.Whole {
			return promText(own.Prom), nil
		}
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf, telemetry.Part{Snapshot: h.tel.Snapshot()}); err != nil {
			return nil, fmt.Errorf("prometheus render: %w", err)
		}
		buf.Write(own.Prom)
		return promText(buf.Bytes()), nil
	}
	if own.Whole {
		return own.Sections, nil
	}
	snap := h.tel.Snapshot()
	body := map[string]interface{}{
		"uptime_seconds": snap.UptimeSeconds,
		"endpoints":      snap.Endpoints,
		"runtime":        snap.Runtime,
		"traces": map[string]interface{}{
			"buffered": len(h.ring.Snapshot()),
			"capacity": h.ring.Cap(),
			"total":    h.ring.Total(),
		},
	}
	if len(snap.Gauges) > 0 {
		body["gauges"] = snap.Gauges
	}
	if snap.SLO != nil {
		body["slo"] = snap.SLO
	}
	for k, v := range own.Sections {
		body[k] = v
	}
	return body, nil
}

func (h *Handler) healthz(r *http.Request) (interface{}, error) {
	body := h.b.Health(r.Context())
	if h.cfg.SLOObjective > 0 {
		body.SLO = h.tel.Snapshot().SLO
	}
	return body, nil
}

// traces serves the ring of recently completed traces, newest first. Trace
// names are endpoint patterns and request IDs pass SanitizeRequestID, so
// nothing here can leak a query string or customer label.
func (h *Handler) traces(r *http.Request) (interface{}, error) {
	traces := h.ring.Snapshot()
	return map[string]interface{}{
		"count":    len(traces),
		"capacity": h.ring.Cap(),
		"total":    h.ring.Total(),
		"traces":   traces,
	}, nil
}
