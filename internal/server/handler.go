// Package server is a store node: the local Backend of the /v1 serving
// stack (internal/api owns the HTTP layer) and the production http.Server
// around it. The backend answers typed requests from one open store —
// single and batch cell/row reads, each one reconstruction from the
// compressed form, aggregates through the query engine and its plan cache,
// axis-label addressing, NDJSON bulk appends into an ingestion tier — and
// charges every reconstruction to the request's cost ledger, so the
// paper's one-access-per-cell claim is verifiable live under load.
//
// The package works on the internal store interfaces (store.Store +
// store.Labels) rather than the public facade, so the benchmark can drive
// it without an import cycle through the root package.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/ingest"
	"seqstore/internal/query"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// DefaultPlanCacheSize is the query-plan cache capacity when
// Options.PlanCacheSize is 0. A plan is a selection's V panel, run
// schedule and column index — a few rows' worth of numbers — so the
// default comfortably covers a dashboard's working set.
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
	// PlanCacheSize is the capacity, in memoized query plans, of the plan
	// cache fronting /v1/aggregate and /v1/aggregate/batch. 0 selects
	// DefaultPlanCacheSize; negative disables plan caching (every aggregate
	// re-derives its panel and run schedule).
	PlanCacheSize int
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

	plans       *query.PlanCache   // nil when disabled
	corruptions *telemetry.Counter // store reads that surfaced ErrCorrupt

	tel  *telemetry.Registry
	http *api.Handler
}

var _ api.Backend = (*Handler)(nil)

// NewHandler builds the HTTP API around an open store and optional axis
// labels.
func NewHandler(st store.Store, labels *store.Labels, opts Options) *Handler {
	if opts.PlanCacheSize == 0 {
		opts.PlanCacheSize = DefaultPlanCacheSize
	}
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
	h.corruptions = h.tel.Counter("store_corruptions")
	h.plans = query.NewPlanCache(opts.PlanCacheSize) // nil when size < 0
	if h.writable != nil && h.plans != nil {
		// Keep the plan cache coherent with the write path: a full purge
		// after every fold and recompression — conservative for fold-in
		// (run schedules are selection-pure), required for recompression,
		// which changes every plan's V panel.
		h.writable.SetInvalidationHook(h.plans.Invalidate)
	}
	h.registerGauges()
	h.http = api.NewHandler(h, h.tel, cfg)
	return h
}

// registerGauges wires the store, IO, plan-cache and SVDD counters into the
// registry as collection-time gauges, so the Prometheus rendering covers the
// same ground as the hand-built /metrics JSON body. Monotonic sources get a
// _total suffix (typed counter in the exposition).
func (h *Handler) registerGauges() {
	h.tel.RegisterGauge("store_stored_numbers", func() float64 {
		return float64(h.st.StoredNumbers())
	})
	h.tel.RegisterGauge("store_space_ratio", func() float64 {
		return store.SpaceRatio(h.st)
	})
	if h.plans != nil {
		h.tel.RegisterGauge("plan_cache_hits_total", func() float64 {
			return float64(h.plans.Stats().Hits)
		})
		h.tel.RegisterGauge("plan_cache_misses_total", func() float64 {
			return float64(h.plans.Stats().Misses)
		})
		h.tel.RegisterGauge("plan_cache_evictions_total", func() float64 {
			return float64(h.plans.Stats().Evictions)
		})
		h.tel.RegisterGauge("plan_cache_size", func() float64 {
			return float64(h.plans.Stats().Size)
		})
	}
	// The IO and SVDD gauges re-resolve the cold store on every collection:
	// with a writable tier behind the handler, recompression swaps the cold
	// segment, and a gauge bound to the pointer at startup would freeze.
	if query.UStats(h.coldStore()) != nil {
		h.tel.RegisterGauge("io_row_reads_total", func() float64 {
			if us := query.UStats(h.coldStore()); us != nil {
				return float64(us.RowReads())
			}
			return 0
		})
		h.tel.RegisterGauge("io_row_writes_total", func() float64 {
			if us := query.UStats(h.coldStore()); us != nil {
				return float64(us.RowWrites())
			}
			return 0
		})
		h.tel.RegisterGauge("io_passes_total", func() float64 {
			if us := query.UStats(h.coldStore()); us != nil {
				return float64(us.Passes())
			}
			return 0
		})
	}
	if _, ok := h.coldStore().(*core.Store); ok {
		svddStore := func() *core.Store {
			c, _ := h.coldStore().(*core.Store)
			return c
		}
		h.tel.RegisterGauge("svdd_delta_probes_total", func() float64 {
			if c := svddStore(); c != nil {
				probes, _ := c.ProbeStats()
				return float64(probes)
			}
			return 0
		})
		h.tel.RegisterGauge("svdd_delta_row_probes_total", func() float64 {
			if c := svddStore(); c != nil {
				return float64(c.RowProbes())
			}
			return 0
		})
		h.tel.RegisterGauge("svdd_zero_hits_total", func() float64 {
			if c := svddStore(); c != nil {
				_, zeroHits := c.ProbeStats()
				return float64(zeroHits)
			}
			return 0
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

// coldStore returns the store whose backing format carries the cost model:
// the tier's current cold segment when the store is writable (it is swapped
// by recompression, so it must be unwrapped per call, never captured),
// otherwise the store itself.
func (h *Handler) coldStore() store.Store {
	if h.writable != nil {
		return h.writable.Cold()
	}
	return h.st
}

// uPageSpan reports the backing pages of U row i for the cost ledger; one
// page per row for stores without a paged U backing.
func (h *Handler) uPageSpan(i int) int {
	switch t := h.coldStore().(type) {
	case *svd.Store:
		return t.UPageSpan(i, i+1)
	case *core.Store:
		return t.Base().UPageSpan(i, i+1)
	}
	return 1
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
	if c, ok := h.coldStore().(*core.Store); ok && c.IsZeroRow(i) {
		return
	}
	led.AddDiskAccesses(1)
	led.AddPagesTouched(int64(h.uPageSpan(i)))
}

// --- api.Backend: reads ------------------------------------------------------

// seen is the monitoring side channel of error classification: every
// corruption surfaced to a client increments the store_corruptions counter
// on /v1/metrics, so a damaged store is visible to monitoring even while
// healthy endpoints keep serving.
func (h *Handler) seen(err error) error {
	if status, _ := api.Classify(err); status == http.StatusServiceUnavailable {
		h.corruptions.Inc()
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

func (h *Handler) Cell(ctx context.Context, req api.CellRequest) (api.CellResponse, error) {
	if req.ByLabel() {
		var err error
		if req.I, req.J, err = h.resolveLabels(req.Row, req.Col); err != nil {
			return api.CellResponse{}, api.Invalid("%v", err)
		}
	}
	v, err := h.st.Cell(req.I, req.J)
	if err != nil {
		return api.CellResponse{}, h.seen(err)
	}
	h.chargeRowRead(trace.LedgerFrom(ctx), req.I)
	val, marker := api.Float(v)
	return api.CellResponse{
		I: req.I, J: req.J, Row: req.Row, Col: req.Col,
		Value: val, Nonfinite: marker,
	}, nil
}

func (h *Handler) Cells(ctx context.Context, coords [][2]int) ([]api.CellResponse, error) {
	cells := make([]api.CellResponse, 0, len(coords))
	for _, c := range coords {
		cell, err := h.Cell(ctx, api.CellRequest{I: c[0], J: c[1]})
		if err != nil {
			return nil, fmt.Errorf("cell %d:%d: %w", c[0], c[1], err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

func (h *Handler) Row(ctx context.Context, i int) (api.RowResponse, error) {
	row, err := api.ReadRow(i, func(dst []float64) ([]float64, error) { return h.st.Row(i, dst) })
	if err != nil {
		return api.RowResponse{}, h.seen(err)
	}
	h.chargeRowRead(trace.LedgerFrom(ctx), i)
	return row, nil
}

func (h *Handler) Rows(ctx context.Context, idx []int) ([]api.RowResponse, error) {
	rows := make([]api.RowResponse, 0, len(idx))
	for _, i := range idx {
		row, err := h.Row(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- api.Backend: aggregates -------------------------------------------------

// queryOptions is the evaluation configuration shared by every aggregate
// endpoint.
func (h *Handler) queryOptions(ctx context.Context) query.Options {
	return query.Options{Workers: h.queryWorkers, Ctx: ctx, Plans: h.plans}
}

// Aggregate evaluates one aggregate. With q.Partial the response carries
// the mergeable partial state instead of a value (the scatter/gather form
// used between proxy and store nodes).
func (h *Handler) Aggregate(ctx context.Context, q api.AggregateQuery) (api.AggregateResponse, error) {
	sp := trace.StartSpan(ctx, "evaluate")
	sp.SetAttr("f", q.F)
	sp.SetAttr("rows", len(q.Sel.Rows))
	sp.SetAttr("cols", len(q.Sel.Cols))
	body := api.AggregateResponse{F: q.F, Rows: len(q.Sel.Rows), Cols: len(q.Sel.Cols)}
	if q.Partial {
		p, err := query.EvaluatePartial(h.st, q.Agg, q.Sel, h.queryOptions(ctx))
		sp.End()
		if err == nil {
			body.Partial, err = encodePartial(p)
		}
		if err != nil {
			return api.AggregateResponse{}, h.seen(err)
		}
	} else {
		v, err := query.EvaluateOpts(h.st, q.Agg, q.Sel, h.queryOptions(ctx))
		sp.End()
		if err != nil {
			return api.AggregateResponse{}, h.seen(err)
		}
		body.Value, body.Nonfinite = api.Float(v)
	}
	if q.Explain {
		body.Explain = h.explainBody(ctx, q)
	}
	return body, nil
}

// AggregateBatch evaluates the queries through the scan-sharing batch
// engine: the union of the selections' U rows is fetched once and shared
// across all queries, so overlapping dashboards pay for each disk row once
// instead of once per panel.
func (h *Handler) AggregateBatch(ctx context.Context, b api.BatchQuery) ([]api.BatchAggregateItem, error) {
	items := make([]query.BatchItem, len(b.Queries))
	for qi, q := range b.Queries {
		items[qi] = query.BatchItem{Agg: q.Agg, Sel: q.Sel}
	}
	sp := trace.StartSpan(ctx, "evaluate_batch")
	sp.SetAttr("queries", len(items))
	sp.SetAttr("partial", b.Partial)
	out := make([]api.BatchAggregateItem, len(items))
	render := func(qi int, rerr error, fill func(it *api.BatchAggregateItem) error) {
		it := b.Queries[qi].Item()
		if rerr == nil {
			rerr = fill(&it)
		}
		if rerr != nil {
			out[qi] = api.ErrorItem(h.seen(rerr))
			return
		}
		if b.Queries[qi].Explain {
			it.Explain = h.explainBody(ctx, b.Queries[qi])
		}
		out[qi] = it
	}
	if b.Partial {
		// The scatter/gather form: every query returns mergeable partial
		// state through the same scan-sharing pass the value form uses.
		results, err := query.EvaluateBatchPartial(h.st, items, h.queryOptions(ctx))
		sp.End()
		if err != nil {
			return nil, h.seen(err)
		}
		for qi, pr := range results {
			render(qi, pr.Err, func(it *api.BatchAggregateItem) (err error) {
				it.Partial, err = encodePartial(pr.Partial)
				return err
			})
		}
		return out, nil
	}
	results, err := query.EvaluateBatch(h.st, items, h.queryOptions(ctx))
	sp.End()
	if err != nil {
		// Only a batch-level failure (context cancellation) lands here;
		// per-query errors come back in results.
		return nil, h.seen(err)
	}
	for qi, res := range results {
		render(qi, res.Err, func(it *api.BatchAggregateItem) error {
			it.Value, it.Nonfinite = api.Float(res.Value)
			return nil
		})
	}
	return out, nil
}

// explainBody builds the explain block for an already-executed query: the
// transient plan derivation from query.ExplainQuery (in-memory only — no
// store reads, no plan-cache traffic) joined with the request's executed
// ledger, whose plan_hits/plan_misses reveal how the real evaluation fared
// in the plan cache.
func (h *Handler) explainBody(ctx context.Context, q api.AggregateQuery) *api.Explain {
	ex, err := query.ExplainQuery(h.st, q.Agg, q.Sel, h.queryOptions(ctx))
	if err != nil {
		// The selection validated when the evaluation ran; a failure here
		// means the store changed shape mid-request — drop the block rather
		// than fail a query that already produced its answer.
		return nil
	}
	cost := trace.LedgerFrom(ctx).Snapshot()
	e := &api.Explain{
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
		Cost:            cost,
	}
	switch {
	case cost.PlanHits > 0:
		e.PlanCache = "hit"
	case cost.PlanMisses > 0:
		e.PlanCache = "miss"
	default:
		e.PlanCache = "uncached"
	}
	return e
}

// encodePartial renders a mergeable partial in its wire form: the
// versioned binary frame, base64-wrapped so it can ride inside JSON
// (partials carry exact accumulators and possibly-NaN extrema, which JSON
// numbers cannot).
func encodePartial(p *query.Partial) (string, error) {
	raw, err := p.MarshalBinary()
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(raw), nil
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

// Metrics is the store node's part of /v1/metrics: the plan-cache, store,
// IO, SVDD and ingest sections of the JSON body. The Prometheus view needs
// nothing here — registerGauges put the same numbers in the registry.
func (h *Handler) Metrics(_ context.Context, req api.MetricsRequest) (api.MetricsResponse, error) {
	if req.Prom {
		return api.MetricsResponse{}, nil
	}
	rows, cols := h.st.Dims()
	planCache := map[string]interface{}{"enabled": h.plans != nil}
	if h.plans != nil {
		ps := h.plans.Stats()
		planCache["hits"] = ps.Hits
		planCache["misses"] = ps.Misses
		planCache["evictions"] = ps.Evictions
		planCache["size"] = ps.Size
		planCache["capacity"] = ps.Capacity
		planCache["epoch"] = h.plans.Epoch()
		planCache["hit_rate"] = telemetry.Rate(ps.Hits, ps.Misses)
	}
	body := map[string]interface{}{
		"plan_cache":        planCache,
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
	if us := query.UStats(h.coldStore()); us != nil {
		body["io"] = us.Snapshot()
	}
	if c, ok := h.coldStore().(*core.Store); ok {
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
