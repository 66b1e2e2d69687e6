package api

import (
	"context"
	"io"
	"net/http"

	"seqstore/internal/query"
)

// Backend is what answers a /v1 request once the HTTP layer (Handler) has
// parsed and validated it: typed requests in, typed wire responses and an
// error out. The request's trace and cost ledger travel in ctx. There are
// two implementations — the local store behind internal/server and the
// scatter/gather proxy in internal/cluster — and the HTTP layer knows
// neither: a capability only one of them has (label addressing, partial
// aggregates) is refused by the other with an *Error.
//
// A returned error is rendered through Classify, so backends return store,
// query and ingest errors as they are and build an *Error only where they
// need a particular status, code or shard detail on the wire.
type Backend interface {
	// Dims is the current global shape, against which the HTTP layer
	// resolves index specs and validates selections.
	Dims(ctx context.Context) (rows, cols int, err error)
	Info(ctx context.Context) (InfoResponse, error)

	// Cells and Rows answer in request order; the first failing element
	// fails the request with its own error, unprefixed (the store's errors
	// name the index). A lone /v1/cell or /v1/row is a batch of one.
	Cells(ctx context.Context, reqs []CellRequest) ([]CellResponse, error)
	Rows(ctx context.Context, idx []int) ([]RowResponse, error)

	// AggregateBatch returns one result per query, in order; a query that
	// fails carries its error in its result, and an error return fails the
	// whole batch. A lone /v1/aggregate is a batch of one.
	AggregateBatch(ctx context.Context, b BatchQuery) ([]AggregateResult, error)

	// Bulk takes the raw NDJSON body: the local backend parses it, the
	// proxy forwards the bytes to the open shard unparsed.
	Bulk(ctx context.Context, body io.Reader) (BulkResponse, error)

	// Health is the backend's part of /v1/healthz; the HTTP layer adds the
	// SLO block.
	Health(ctx context.Context) HealthzResponse
	// Metrics is the backend's part of /v1/metrics.
	Metrics(ctx context.Context, req MetricsRequest) (MetricsResponse, error)
}

// CellRequest addresses one cell by index, or — when Row or Col is set —
// by axis labels.
type CellRequest struct {
	I, J     int
	Row, Col string
}

// ByLabel reports whether the request is label-addressed.
func (c CellRequest) ByLabel() bool { return c.Row != "" || c.Col != "" }

// AggregateQuery is one parsed aggregate: F is the canonical function name
// echoed in responses, Sel is validated against Backend.Dims.
type AggregateQuery struct {
	F       string
	Agg     query.Aggregate
	Sel     query.Selection
	Partial bool
	Explain bool
}

// Response starts the query's answer: the echoed fields filled in, the
// result left to the backend.
func (q AggregateQuery) Response() AggregateResponse {
	return AggregateResponse{F: q.F, Rows: len(q.Sel.Rows), Cols: len(q.Sel.Cols)}
}

// AggregateResult is one query's outcome from Backend.AggregateBatch: its
// answer, or the error that failed it alone. The HTTP layer renders the
// error as the /v1/aggregate error envelope or as a failed batch item.
type AggregateResult struct {
	Response AggregateResponse
	Err      error
}

// BatchQuery is the valid queries of one /v1/aggregate/batch request
// (items that failed to parse never reach the backend). Partial applies to
// the whole batch; the batch-wide explain flag is already folded into each
// query's.
type BatchQuery struct {
	Queries []AggregateQuery
	Partial bool
}

// item is the result's /v1/aggregate/batch item: a failed query's carries
// the status and code its error classifies to and the error's message.
func (r AggregateResult) item() BatchAggregateItem {
	if r.Err != nil {
		status, code := Classify(r.Err)
		return BatchAggregateItem{Status: status, Code: code, Error: r.Err.Error()}
	}
	a := r.Response
	return BatchAggregateItem{Status: http.StatusOK, F: a.F, Rows: a.Rows, Cols: a.Cols,
		Value: a.Value, Nonfinite: a.Nonfinite, Partial: a.Partial, Explain: a.Explain}
}

// MetricsRequest selects the /v1/metrics view: Scope is the ?scope=
// parameter ("" is this process), Prom asks for Prometheus text.
type MetricsRequest struct {
	Scope string
	Prom  bool
}

// MetricsResponse is a backend's contribution to /v1/metrics. Sections are
// merged into the JSON body beside the HTTP layer's own (uptime,
// endpoints, runtime, traces); Prom is exposition text written after the
// registry's. With Whole set the contribution is the entire view — the
// proxy's ?scope=cluster, which reports the store nodes, not this process —
// and the layer adds nothing of its own.
type MetricsResponse struct {
	Sections map[string]interface{}
	Prom     []byte
	Whole    bool
}
