// Package server is a store node: the local Backend of the /v1 serving
// stack (internal/api owns the HTTP layer) and the production http.Server
// around it. The backend answers typed requests from one open store —
// batches of cell/row reads (a lone read is a batch of one), each read one
// reconstruction from the compressed form, batches of aggregates through
// the scan-sharing query engine, axis-label
// addressing, NDJSON bulk appends into an ingestion tier — and charges
// every reconstruction to the request's cost ledger, so the paper's
// one-access-per-cell claim is verifiable live under load.
//
// The package works on the internal store interfaces (store.Store +
// store.Labels) rather than the public facade, so the benchmark can drive
// it without an import cycle through the root package.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/ingest"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/store"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// DefaultPlanCacheSize was the query-plan cache's capacity. It remains
// because the benchmark module still passes it to query.NewPlanCache.
//
// Deprecated: there is no plan cache.
const DefaultPlanCacheSize = 256

// Options configures a Handler.
type Options struct {
	// CacheRows is ignored: point reads reconstruct from the compressed
	// form, one U access each. The field remains because the benchmark
	// module's composite literals still set it.
	CacheRows int
	// MaxBatchCells bounds one /v1/cells request; 0 means
	// api.DefaultMaxBatchCells.
	MaxBatchCells int
	// MaxBatchRows bounds one /v1/rows request and the documents of one
	// /v1/bulk; 0 means api.DefaultMaxBatchRows.
	MaxBatchRows int
	// MaxBatchQueries bounds one /v1/aggregate/batch request; 0 means
	// api.DefaultMaxBatchQueries.
	MaxBatchQueries int
	// QueryWorkers shards aggregate evaluation across this many goroutines:
	// 0 means one per CPU, 1 evaluates serially.
	QueryWorkers int
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

// Handler is the /v1 API over one open store: the local api.Backend (point
// reads, query engine, ingestion tier) behind the shared HTTP layer. It is
// safe for concurrent use. Create it with NewHandler.
type Handler struct {
	st store.Store

	queryWorkers, maxBulkRows int

	// writable is non-nil when st is an ingestion tier; it enables
	// /v1/bulk and switches the cost model and gauge plumbing to unwrap
	// the tier's current cold segment dynamically.
	writable *ingest.Tiered

	rowIndex, colIndex map[string]int // label → index; nil when unlabeled

	corruptions atomic.Int64 // store reads that surfaced ErrCorrupt

	tel  *telemetry.Registry
	http *api.Handler
}

var _ api.Backend = (*Handler)(nil)

// NewHandler builds the HTTP API around an open store and optional axis
// labels.
func NewHandler(st store.Store, labels *store.Labels, opts Options) *Handler {
	cfg := api.Config{
		MaxBatchCells:   opts.MaxBatchCells,
		MaxBatchRows:    opts.MaxBatchRows,
		MaxBatchQueries: opts.MaxBatchQueries,
		Logger:          opts.Logger,
		SlowQuery:       opts.SlowQuery,
		TraceBuffer:     opts.TraceBuffer,
		SLOObjective:    opts.SLOObjective,
		SLOTarget:       opts.SLOTarget,
	}.WithDefaults()
	h := &Handler{
		st:           st,
		queryWorkers: opts.QueryWorkers,
		maxBulkRows:  cfg.MaxBatchRows,
		tel:          telemetry.NewRegistry(),
	}
	if labels != nil {
		h.rowIndex = indexLabels(labels.Rows)
		h.colIndex = indexLabels(labels.Cols)
	}
	h.writable, _ = st.(*ingest.Tiered)
	h.registerGauges()
	h.http = api.NewHandler(h, h.tel, cfg)
	return h
}

// registerGauges wires the corruption count and the store, IO and SVDD
// counters into the registry as collection-time gauges, so the Prometheus
// rendering covers the same ground as the hand-built /metrics JSON body.
// Monotonic sources get a _total suffix (typed counter in the exposition).
func (h *Handler) registerGauges() {
	h.tel.RegisterGauge("store_corruptions_total", func() float64 {
		return float64(h.corruptions.Load())
	})
	h.tel.RegisterGauge("store_stored_numbers", func() float64 {
		return float64(h.st.StoredNumbers())
	})
	h.tel.RegisterGauge("store_space_ratio", func() float64 {
		return store.SpaceRatio(h.st)
	})
	// The IO and SVDD gauges re-resolve the factored store on every
	// collection: with a writable tier behind the handler, recompression
	// swaps the cold segment, and a gauge bound to the pointer at startup
	// would freeze. A recompression keeps the method and hands U to memory,
	// so which gauges exist is decided once.
	if h.uStats() != nil {
		h.tel.RegisterGauge("io_row_reads_total", func() float64 {
			return float64(h.uStats().RowReads())
		})
		h.tel.RegisterGauge("io_row_writes_total", func() float64 {
			return float64(h.uStats().RowWrites())
		})
		h.tel.RegisterGauge("io_passes_total", func() float64 {
			return float64(h.uStats().Passes())
		})
	}
	if c := h.factored(); c != nil && c.Method() == store.MethodSVDD {
		h.tel.RegisterGauge("svdd_delta_probes_total", func() float64 {
			probes, _ := h.factored().ProbeStats()
			return float64(probes)
		})
		h.tel.RegisterGauge("svdd_delta_row_probes_total", func() float64 {
			return float64(h.factored().RowProbes())
		})
		h.tel.RegisterGauge("svdd_zero_hits_total", func() float64 {
			_, zeroHits := h.factored().ProbeStats()
			return float64(zeroHits)
		})
	}
	if h.writable != nil {
		h.tel.RegisterGauge("ingest_hot_rows", func() float64 {
			return float64(h.writable.HotRows())
		})
		h.tel.RegisterGauge("ingest_rows_appended_total", func() float64 {
			return float64(h.writable.Stats().Appended)
		})
		h.tel.RegisterGauge("ingest_rows_folded_total", func() float64 {
			return float64(h.writable.Stats().Folded)
		})
		h.tel.RegisterGauge("ingest_wal_bytes", func() float64 {
			return float64(h.writable.Stats().WalBytes)
		})
	}
}

// ServeHTTP serves the /v1 contract through the shared HTTP layer.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.http.ServeHTTP(w, r)
}

// CacheStats reports zeros: there is no row cache. It remains because the
// benchmark module still calls it.
func (h *Handler) CacheStats() (hits, misses int64, size, capacity int) {
	return 0, 0, 0, 0
}

// --- Read paths --------------------------------------------------------------

// factored returns the factored store whose U backing carries the cost
// model: the tier's current cold segment when the store is writable (it is
// swapped by recompression, so it must be unwrapped per call, never
// captured), otherwise the store itself — nil for a method without factors.
func (h *Handler) factored() *core.Store {
	if h.writable != nil {
		return h.writable.Cold()
	}
	c, _ := h.st.(*core.Store)
	return c
}

// uStats returns the access counters of the factored store's U backing (the
// matrix whose row reads are the paper's "one disk access per cell"), or
// nil for a store without one.
func (h *Handler) uStats() *matio.Stats {
	if c := h.factored(); c != nil {
		return c.Base().UStats()
	}
	return nil
}

// chargeRowRead attributes one row reconstruction — one U-row fetch in the
// paper's block model — to the request's cost ledger. Hot-segment rows are
// served from memory (their durable copy in the WAL is never read on the
// query path), and rows the SVDD store serves from its in-memory zero flag
// (§6.2) are reconstructions without a disk access.
func (h *Handler) chargeRowRead(led *trace.Ledger, i int) {
	led.AddRowsRead(1)
	if h.writable != nil && h.writable.IsHot(i) {
		return
	}
	pages := 1 // a store without a paged U backing
	if c := h.factored(); c != nil {
		if c.IsZeroRow(i) {
			return
		}
		pages = c.Base().UPageSpan(i, i+1)
	}
	led.AddDiskAccesses(1)
	led.AddPagesTouched(int64(pages))
}

// --- api.Backend: reads ------------------------------------------------------

// seen is the monitoring side channel of error classification: every
// corruption surfaced to a client increments the store_corruptions counter
// on /v1/metrics (store_corruptions_total among its gauges), so a damaged
// store is visible to monitoring even while healthy endpoints keep serving.
func (h *Handler) seen(err error) error {
	if status, _ := api.Classify(err); status == http.StatusServiceUnavailable {
		h.corruptions.Add(1)
	}
	return err
}

func (h *Handler) Dims(context.Context) (int, int, error) {
	n, m := h.st.Dims()
	return n, m, nil
}

func (h *Handler) Info(context.Context) (api.InfoResponse, error) {
	rows, cols := h.st.Dims()
	body := api.InfoResponse{
		Method:        h.st.Method().String(),
		Rows:          rows,
		Cols:          cols,
		SpaceRatio:    store.SpaceRatio(h.st),
		StoredNumbers: h.st.StoredNumbers(),
		RowLabels:     h.rowIndex != nil,
		ColLabels:     h.colIndex != nil,
		Writable:      h.writable != nil,
	}
	if h.writable != nil {
		body.HotRows = h.writable.HotRows()
		body.ColdRows = h.writable.ColdRows()
	}
	return body, nil
}

// Cells reads each cell with one reconstruction and one ledger charge. A
// label-addressed cell resolves through the label maps first. The first
// failing cell fails the batch with the store's own error, which names the
// offending index, so a batch and its lone twin fail alike on every shape.
func (h *Handler) Cells(ctx context.Context, reqs []api.CellRequest) ([]api.CellResponse, error) {
	led := trace.LedgerFrom(ctx)
	cells := make([]api.CellResponse, len(reqs))
	for k, req := range reqs {
		if req.ByLabel() {
			var err error
			if req.I, req.J, err = h.resolveLabels(req.Row, req.Col); err != nil {
				return nil, api.Invalid("%v", err)
			}
		}
		v, err := h.st.Cell(req.I, req.J)
		if err != nil {
			return nil, h.seen(err)
		}
		h.chargeRowRead(led, req.I)
		cells[k] = api.CellResponse{I: req.I, J: req.J, Row: req.Row, Col: req.Col}
		cells[k].Value, cells[k].Nonfinite = api.Float(v)
	}
	return cells, nil
}

// Rows reconstructs each row into a pooled buffer, one ledger charge each;
// the first failing row fails the batch, as in Cells.
func (h *Handler) Rows(ctx context.Context, idx []int) ([]api.RowResponse, error) {
	led := trace.LedgerFrom(ctx)
	rows := make([]api.RowResponse, len(idx))
	for k, i := range idx {
		row, err := api.ReadRow(i, func(dst []float64) ([]float64, error) { return h.st.Row(i, dst) })
		if err != nil {
			return nil, h.seen(err)
		}
		h.chargeRowRead(led, i)
		rows[k] = row
	}
	return rows, nil
}

// --- api.Backend: aggregates -------------------------------------------------

// queryOptions is the evaluation configuration shared by every aggregate
// endpoint.
func (h *Handler) queryOptions(ctx context.Context) query.Options {
	return query.Options{Workers: h.queryWorkers, Ctx: ctx}
}

// AggregateBatch evaluates the queries through the scan-sharing batch
// engine: the union of the selections' U rows is fetched once and shared
// across all queries, so overlapping dashboards pay for each disk row once
// instead of once per panel; a lone aggregate is a batch of one, which
// shares nothing and costs what the query costs. With b.Partial every
// result carries the mergeable partial state instead of a value (the
// scatter/gather form used between proxy and store nodes).
func (h *Handler) AggregateBatch(ctx context.Context, b api.BatchQuery) ([]api.AggregateResult, error) {
	items := make([]query.BatchItem, len(b.Queries))
	for qi, q := range b.Queries {
		items[qi] = query.BatchItem{Agg: q.Agg, Sel: q.Sel}
	}
	sp := trace.StartSpan(ctx, "evaluate")
	sp.SetAttr("queries", len(items))
	sp.SetAttr("partial", b.Partial)
	var (
		values   []query.BatchResult
		partials []query.PartialResult
		err      error
	)
	if b.Partial {
		partials, err = query.EvaluateBatchPartial(h.st, items, h.queryOptions(ctx))
	} else {
		values, err = query.EvaluateBatch(h.st, items, h.queryOptions(ctx))
	}
	sp.End()
	if err != nil {
		// Only a batch-level failure (context cancellation) lands here;
		// per-query errors come back in the results.
		return nil, h.seen(err)
	}
	out := make([]api.AggregateResult, len(items))
	for qi, q := range b.Queries {
		resp := q.Response()
		if b.Partial {
			if err = partials[qi].Err; err == nil {
				resp.Partial, err = partials[qi].Partial.MarshalBinary()
			}
		} else if err = values[qi].Err; err == nil {
			resp.Value, resp.Nonfinite = api.Float(values[qi].Value)
		}
		if err != nil {
			out[qi].Err = h.seen(err)
			continue
		}
		if q.Explain {
			resp.Explain = h.explainBody(ctx, q)
		}
		out[qi].Response = resp
	}
	return out, nil
}

// explainBody builds the explain block for an already-executed query: the
// plan derivation from query.ExplainQuery (in-memory only — no store
// reads) joined with the request's executed ledger.
func (h *Handler) explainBody(ctx context.Context, q api.AggregateQuery) *api.Explain {
	ex, err := query.ExplainQuery(h.st, q.Agg, q.Sel, h.queryOptions(ctx))
	if err != nil {
		// The selection validated when the evaluation ran; a failure here
		// means the store changed shape mid-request — drop the block rather
		// than fail a query that already produced its answer.
		return nil
	}
	return &api.Explain{
		Plan:            ex.Plan,
		Workers:         ex.Workers,
		Cells:           ex.Cells,
		ChunkRows:       ex.ChunkRows,
		Chunks:          ex.Chunks,
		Runs:            ex.Runs,
		CoalescedScans:  ex.CoalescedScans,
		ScanRows:        ex.ScanRows,
		PointRows:       ex.PointRows,
		ZeroRows:        ex.ZeroRows,
		EstRowsRead:     ex.EstRowsRead,
		EstDiskAccesses: ex.EstDiskAccesses,
		EstPagesTouched: ex.EstPagesTouched,
		EstDeltasProbed: ex.EstDeltasProbed,
		Cost:            trace.LedgerFrom(ctx).Snapshot(),
	}
}

// --- api.Backend: writes -----------------------------------------------------

// maxBulkLine bounds one NDJSON line of a /v1/bulk body; a longer line is a
// malformed request, not a server fault.
const maxBulkLine = 1 << 20

// Bulk ingests rows through the NDJSON bulk idiom: optional action lines
// ({"create":{}} or {"index":{}}) interleaved with document lines like
// {"label":"cust-9911","values":[0.4,1.7,...]}. Documents that fail
// validation are rejected per item (status 400) without sinking the rest of
// the request; every accepted document is appended — and fsynced — as ONE
// WAL batch, so an item reporting 201 is durable across any crash.
//
// Malformed NDJSON (unparseable line, oversized line, more documents than
// the /v1/rows batch limit) fails the whole request with 400: unlike a
// value error in one document, the server cannot tell where the next
// document boundary is.
func (h *Handler) Bulk(ctx context.Context, body io.Reader) (api.BulkResponse, error) {
	var none api.BulkResponse
	if h.writable == nil {
		return none, &api.Error{
			Status:  http.StatusForbidden,
			Code:    api.CodeNotWritable,
			Message: "store is read-only: start the server on a writable (tiered) store to enable /v1/bulk",
		}
	}
	_, cols := h.st.Dims()

	var (
		items   []api.BulkItem
		pending []api.BulkDoc // validated documents awaiting the batch append
		slot    []int         // items index for each pending document
	)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBulkLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			return none, api.Invalid("bulk line %d: malformed JSON: %v", lineNo, err)
		}
		if _, isDoc := obj["values"]; !isDoc {
			_, create := obj["create"]
			_, index := obj["index"]
			if create || index {
				// Action line: accepted and ignored — appending is the only
				// operation, so the action carries no information.
				continue
			}
			return none, api.Invalid("bulk line %d: neither an action ({\"create\":{}}) nor a document with \"values\"", lineNo)
		}
		var d api.BulkDoc
		if err := json.Unmarshal(line, &d); err != nil {
			return none, api.Invalid("bulk line %d: malformed document: %v", lineNo, err)
		}
		// Per-document validation mirrors AppendBatch's checks, so one bad
		// document costs itself a 400 item instead of failing the batch.
		var reason string
		if len(d.Values) != cols {
			reason = fmt.Sprintf("row has %d values, store has %d columns", len(d.Values), cols)
		} else {
			for _, v := range d.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					reason = "row contains a non-finite value"
					break
				}
			}
		}
		if reason != "" {
			items = append(items, api.BulkItem{Create: api.BulkResult{
				Status: http.StatusBadRequest, Label: d.Label, Error: reason,
			}})
			continue
		}
		slot = append(slot, len(items))
		items = append(items, api.BulkItem{}) // filled in after the append
		pending = append(pending, d)
	}
	if err := sc.Err(); err != nil {
		return none, api.Invalid("bulk line %d: %v", lineNo+1, err)
	}
	if len(items) == 0 {
		return none, api.Invalid("bulk body has no documents; send NDJSON lines like {\"label\":\"x\",\"values\":[...]}")
	}
	if len(pending) > h.maxBulkRows {
		return none, api.Invalid("batch of %d rows exceeds limit %d", len(pending), h.maxBulkRows)
	}

	if len(pending) > 0 {
		labels := make([]string, len(pending))
		rows := make([][]float64, len(pending))
		for k, d := range pending {
			labels[k] = d.Label
			rows[k] = d.Values
		}
		first, err := h.writable.AppendBatch(ctx, labels, rows)
		if err != nil {
			return none, h.seen(err)
		}
		for k := range pending {
			items[slot[k]].Create = api.BulkResult{
				Status: http.StatusCreated, Row: first + k, Label: pending[k].Label,
			}
		}
	}
	return api.BulkResponse{Items: items}, nil
}

// --- api.Backend: health and metrics -----------------------------------------

func (h *Handler) Health(context.Context) api.HealthzResponse {
	return api.HealthzResponse{Status: "ok"}
}

// Metrics is the store node's part of /v1/metrics: the store, IO, SVDD and
// ingest sections of the JSON body. The Prometheus view needs
// nothing here — registerGauges put the same numbers in the registry.
func (h *Handler) Metrics(_ context.Context, req api.MetricsRequest) (api.MetricsResponse, error) {
	if req.Prom {
		return api.MetricsResponse{}, nil
	}
	rows, cols := h.st.Dims()
	body := map[string]interface{}{
		"store_corruptions": h.corruptions.Load(),
		"store": map[string]interface{}{
			"method":         h.st.Method().String(),
			"rows":           rows,
			"cols":           cols,
			"stored_numbers": h.st.StoredNumbers(),
			"space_ratio":    store.SpaceRatio(h.st),
		},
	}
	// The paper's cost model, live: U-row reads per reconstruction.
	if us := h.uStats(); us != nil {
		body["io"] = us.Snapshot()
	}
	if c := h.factored(); c != nil && c.Method() == store.MethodSVDD {
		probes, zeroHits := c.ProbeStats()
		body["svdd"] = map[string]interface{}{
			"delta_probes":     probes,
			"delta_row_probes": c.RowProbes(),
			"zero_hits":        zeroHits,
		}
	}
	if h.writable != nil {
		body["ingest"] = h.writable.Stats()
	}
	return api.MetricsResponse{Sections: body}, nil
}

// --- Helpers ---------------------------------------------------------------

// resolveLabels maps a (row label, column label) pair to indices.
func (h *Handler) resolveLabels(rowLabel, colLabel string) (i, j int, err error) {
	if h.rowIndex == nil && h.colIndex == nil && h.writable == nil {
		return 0, 0, errors.New("store has no axis labels")
	}
	i, ok := h.rowIndex[rowLabel]
	if !ok && h.writable != nil {
		// Rows appended after startup are not in the static index; the tier
		// tracks labels across both segments.
		i, ok = h.writable.LookupRow(rowLabel)
	}
	if !ok {
		return 0, 0, fmt.Errorf("unknown row label %q", rowLabel)
	}
	j, ok = h.colIndex[colLabel]
	if !ok {
		return 0, 0, fmt.Errorf("unknown column label %q", colLabel)
	}
	return i, j, nil
}

// indexLabels builds a label → index map; first occurrence wins for
// duplicates, matching the facade's label resolution.
func indexLabels(ss []string) map[string]int {
	if ss == nil {
		return nil
	}
	m := make(map[string]int, len(ss))
	for i, s := range ss {
		if _, dup := m[s]; !dup {
			m[s] = i
		}
	}
	return m
}
