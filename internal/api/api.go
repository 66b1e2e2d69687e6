// Package api is the shared half of the /v1 serving stack: the typed wire
// contract, the Backend interface that answers it, and the one HTTP layer
// (Handler) over that interface.
//
// The contract is one struct per request/response body, shared by both
// backends, the proxy's shard client and the test suites, so the proxy can
// round-trip a store node's response through these types without
// re-marshalling surprises. Values that may be NaN/±Inf — which
// encoding/json rejects — travel as a null value plus a "nonfinite" marker
// naming the class; Float and ReadRow build that form, NumValue reads it
// back. The four point-read bodies render through append encoders
// (encode.go) whose bytes are encoding/json's. The three bodies a proxy
// asks a store node for also have a binary form, sent to a caller that
// names FrameType in Accept (frame.go).
//
// Handler owns everything about serving /v1 that does not depend on where
// the data lives: routing, the request middleware, parsing and limits, the
// error envelope, metrics, health and traces. Backend is the rest, and has
// two implementations: the local store (internal/server) and the
// scatter/gather proxy (internal/cluster).
package api

import (
	"math"
	"sync"

	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// --- Cells and rows --------------------------------------------------------

// CellResponse is the /v1/cell body. Row/Col echo label-addressed lookups;
// index-addressed lookups leave them empty.
type CellResponse struct {
	I         int      `json:"i"`
	J         int      `json:"j"`
	Row       string   `json:"row,omitempty"`
	Col       string   `json:"col,omitempty"`
	Value     *float64 `json:"value"`
	Nonfinite string   `json:"nonfinite,omitempty"`
}

// CellsResponse is the /v1/cells body: the batched cell lookups in request
// order.
type CellsResponse struct {
	Count int            `json:"count"`
	Cells []CellResponse `json:"cells"`
}

// RowResponse is the /v1/row body (and one element of /v1/rows): a full
// reconstructed sequence. Nonfinite counts the null-encoded cells. A store
// node's response (ReadRow) leaves Values nil and holds the reconstruction
// itself, which renders to the same bytes.
type RowResponse struct {
	I         int        `json:"i"`
	Values    []*float64 `json:"values"`
	Nonfinite int        `json:"nonfinite,omitempty"`

	row *[]float64 // pooled reconstruction rendered in place of Values
}

// rowBufs recycles the buffers ReadRow reconstructs into; WriteJSON puts a
// row's buffer back once the row is rendered.
var rowBufs = sync.Pool{New: func() any { return new([]float64) }}

// ReadRow is the response for row i, reconstructed by read into a pooled
// buffer (read may grow it, as store.Store.Row does) and rendered straight
// from the values, with no pointer per value.
func ReadRow(i int, read func(dst []float64) ([]float64, error)) (RowResponse, error) {
	buf := rowBufs.Get().(*[]float64)
	row, err := read((*buf)[:0])
	if err != nil {
		rowBufs.Put(buf)
		return RowResponse{}, err
	}
	*buf = row
	nonfinite := 0
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			nonfinite++
		}
	}
	return RowResponse{I: i, Nonfinite: nonfinite, row: buf}, nil
}

// recycle returns a rendered row's buffer to the pool.
func (r RowResponse) recycle() {
	if r.row != nil {
		rowBufs.Put(r.row)
	}
}

// RowsResponse is the /v1/rows body: the selected rows in request order.
type RowsResponse struct {
	Count int           `json:"count"`
	Rows  []RowResponse `json:"rows"`
}

// recycle returns every rendered row's buffer to the pool.
func (r RowsResponse) recycle() {
	for _, row := range r.Rows {
		row.recycle()
	}
}

// --- Aggregates ------------------------------------------------------------

// AggregateRequest is one aggregate query: the POST /v1/aggregate body and
// the element type of a batch request. F defaults to "avg"; Rows/Cols are
// index specs ("0:64,70"), empty meaning the full axis. Partial asks the
// node to return the mergeable partial state (its SQP1 frame) instead of a
// finished value — the scatter/gather form the proxy uses so the gathered
// result is bit-identical to a single-node evaluation.
type AggregateRequest struct {
	F       string `json:"f,omitempty"`
	Rows    string `json:"rows,omitempty"`
	Cols    string `json:"cols,omitempty"`
	Partial bool   `json:"partial,omitempty"`
	// Explain asks for the query's plan and predicted costs alongside the
	// result — see Explain.
	Explain bool `json:"explain,omitempty"`
}

// Explain is the introspection block returned when an aggregate request
// sets "explain": true: the plan the dispatch chose, the row-run schedule
// it would execute, the predicted ledger charges (modelling a cold store —
// deriving them performs no store reads), and the actual post-execution
// ledger, so estimated vs. actual cost is one response. Through the proxy,
// the top-level numbers are the sums over shards and Shards carries each
// store node's own block.
type Explain struct {
	// Plan names the dispatch arm: "count", "factored", "projected" or
	// "generic". PlanCache reports whether the executed plan came from the
	// plan cache ("hit", "miss", or "uncached" when no cache applied).
	Plan      string `json:"plan"`
	PlanCache string `json:"plan_cache,omitempty"`

	Workers int   `json:"workers"`
	Cells   int64 `json:"cells"`

	// Row-run schedule stats after clipping to worker chunks: see
	// query.Explain for the precise semantics of each.
	ChunkRows      int `json:"chunk_rows"`
	Chunks         int `json:"chunks"`
	Runs           int `json:"runs"`
	CoalescedScans int `json:"coalesced_scans"`
	ScanRows       int `json:"scan_rows"`
	PointRows      int `json:"point_rows"`
	ZeroRows       int `json:"zero_rows"`

	EstRowsRead     int64 `json:"est_rows_read"`
	EstDiskAccesses int64 `json:"est_disk_accesses"`
	EstPagesTouched int64 `json:"est_pages_touched"`
	EstDeltasProbed int64 `json:"est_deltas_probed"`

	// Cost is the request's executed ledger at response time (the same
	// numbers the X-Cost-* headers carry). For batch requests it covers the
	// whole shared-scan batch, not the single item.
	Cost trace.LedgerSnapshot `json:"cost"`

	// Shards carries the per-shard explain blocks when the query was
	// scattered by the proxy.
	Shards []ShardExplain `json:"shards,omitempty"`
}

// ShardExplain is one store node's explain block inside a proxied explain.
type ShardExplain struct {
	Shard int `json:"shard"`
	Explain
}

// AggregateResponse is the POST /v1/aggregate body. Rows/Cols
// report the selection sizes. For Partial requests, Value is absent and
// Partial carries the mergeable state's SQP1 frame, which JSON renders as
// a base64 string and a frame carries as it is.
type AggregateResponse struct {
	F         string   `json:"f"`
	Rows      int      `json:"rows"`
	Cols      int      `json:"cols"`
	Value     *float64 `json:"value,omitempty"`
	Nonfinite string   `json:"nonfinite,omitempty"`
	Partial   []byte   `json:"partial,omitempty"`
	Explain   *Explain `json:"explain,omitempty"`
}

// BatchAggregateRequest is the POST /v1/aggregate/batch body. Partial and
// Explain apply to every query (the proxy scatters whole batches); a single
// item can also opt into explain by itself.
type BatchAggregateRequest struct {
	Queries []AggregateRequest `json:"queries"`
	Partial bool               `json:"partial,omitempty"`
	Explain bool               `json:"explain,omitempty"`
}

// BatchAggregateItem is one query's outcome inside a batch response;
// queries fail independently, so each carries its own status, and a failed
// one the error envelope's code and message — which is what lets a proxy
// render a lone aggregate's shard failure as the store node would.
type BatchAggregateItem struct {
	Status    int      `json:"status"`
	F         string   `json:"f,omitempty"`
	Rows      int      `json:"rows,omitempty"`
	Cols      int      `json:"cols,omitempty"`
	Value     *float64 `json:"value,omitempty"`
	Nonfinite string   `json:"nonfinite,omitempty"`
	Partial   []byte   `json:"partial,omitempty"`
	Explain   *Explain `json:"explain,omitempty"`
	Code      string   `json:"code,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// BatchAggregateResponse is the POST /v1/aggregate/batch body.
type BatchAggregateResponse struct {
	Took   int64                `json:"took"`
	Errors bool                 `json:"errors"`
	Items  []BatchAggregateItem `json:"items"`
}

// --- Bulk ingestion --------------------------------------------------------

// BulkDoc is one NDJSON document line of a /v1/bulk body.
type BulkDoc struct {
	Label  string    `json:"label,omitempty"`
	Values []float64 `json:"values"`
}

// BulkResult is one document's outcome.
type BulkResult struct {
	Status int    `json:"status"`
	Row    int    `json:"row,omitempty"`
	Label  string `json:"label,omitempty"`
	Error  string `json:"error,omitempty"`
}

// BulkItem wraps a result under "create", matching the bulk-API contract
// (appending is the only operation).
type BulkItem struct {
	Create BulkResult `json:"create"`
}

// BulkResponse is the /v1/bulk body.
type BulkResponse struct {
	Took   int64      `json:"took"`
	Errors bool       `json:"errors"`
	Items  []BulkItem `json:"items"`
}

// --- Info and health -------------------------------------------------------

// InfoResponse is the /v1/info body. Shards is set only by the proxy, whose
// info is the composition of its store nodes'.
type InfoResponse struct {
	Method        string      `json:"method"`
	Rows          int         `json:"rows"`
	Cols          int         `json:"cols"`
	SpaceRatio    float64     `json:"spaceRatio"`
	StoredNumbers int64       `json:"storedNumbers"`
	RowLabels     bool        `json:"rowLabels"`
	ColLabels     bool        `json:"colLabels"`
	Writable      bool        `json:"writable"`
	HotRows       int         `json:"hotRows,omitempty"`
	ColdRows      int         `json:"coldRows,omitempty"`
	Shards        []ShardInfo `json:"shards,omitempty"`
}

// ShardInfo is one store node's slice of the proxy's keyspace.
type ShardInfo struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"` // -1: open-ended (absorbs appends)
	Rows  int    `json:"rows"`
}

// HealthzResponse is the /v1/healthz body. Single nodes report just
// Status; the proxy adds per-shard health. SLO is present when the process
// has a latency objective configured: per-endpoint attainment and burn
// rate against it, derived from the same histograms /v1/metrics serves.
type HealthzResponse struct {
	Status string               `json:"status"`
	SLO    *telemetry.SLOReport `json:"slo,omitempty"`
	Shards []ShardHealth        `json:"shards,omitempty"`
}

// ShardHealth is one store node's liveness as seen from the proxy.
type ShardHealth struct {
	Shard   int    `json:"shard"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// --- Non-finite value encoding ---------------------------------------------

// Float maps v to its wire form: a pointer to the value for finite v, or
// (nil, marker) for NaN/±Inf, which JSON cannot carry as numbers.
func Float(v float64) (*float64, string) {
	switch {
	case math.IsNaN(v):
		return nil, "NaN"
	case math.IsInf(v, 1):
		return nil, "+Inf"
	case math.IsInf(v, -1):
		return nil, "-Inf"
	}
	return &v, ""
}

// NumValue inverts Float: the decoded float64, honoring a nonfinite
// marker. Unknown markers (and a nil value without one) decode as NaN.
func NumValue(v *float64, nonfinite string) float64 {
	if v != nil {
		return *v
	}
	switch nonfinite {
	case "+Inf":
		return math.Inf(1)
	case "-Inf":
		return math.Inf(-1)
	}
	return math.NaN()
}
