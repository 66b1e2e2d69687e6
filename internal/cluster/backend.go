package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"seqstore/internal/api"
	"seqstore/internal/query"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// decodePartial decodes a store node's SQP1 partial frame.
func decodePartial(raw []byte) (*query.Partial, error) {
	p := new(query.Partial)
	if err := p.UnmarshalBinary(raw); err != nil {
		return nil, fmt.Errorf("cluster: %v", err)
	}
	return p, nil
}

// --- Info, health, metrics ---------------------------------------------------

// Info composes the cluster-wide /v1/info from live per-shard infos:
// global dimensions, summed stored numbers, a row-weighted space ratio,
// and the shard map itself.
func (p *Proxy) Info(ctx context.Context) (api.InfoResponse, error) {
	topo, shards := p.view()
	infos, err := p.fetchInfos(ctx, shards)
	if err != nil {
		return api.InfoResponse{}, err
	}
	n, m, err := composeDims(topo, infos)
	if err != nil {
		return api.InfoResponse{}, err
	}
	body := api.InfoResponse{
		Method:    infos[0].Method,
		Rows:      n,
		Cols:      m,
		RowLabels: true,
		ColLabels: true,
		Shards:    make([]api.ShardInfo, len(shards)),
	}
	var weighted float64
	for s, info := range infos {
		if info.Method != body.Method {
			body.Method = "mixed"
		}
		body.StoredNumbers += info.StoredNumbers
		body.RowLabels = body.RowLabels && info.RowLabels
		body.ColLabels = body.ColLabels && info.ColLabels
		body.Writable = body.Writable || info.Writable
		weighted += info.SpaceRatio * float64(info.Rows)
		body.Shards[s] = api.ShardInfo{
			Shard: s,
			Addr:  topo.Shards[s].Addr,
			Lo:    topo.Shards[s].Lo,
			Hi:    topo.Shards[s].Hi,
			Rows:  info.Rows,
		}
	}
	if n > 0 {
		body.SpaceRatio = weighted / float64(n)
	}
	return body, nil
}

// Health probes every shard concurrently and reports per-shard liveness.
// The proxy itself is healthy as long as it can answer, so the status
// degrades rather than fails when shards are down.
func (p *Proxy) Health(ctx context.Context) api.HealthzResponse {
	topo, shards := p.view()
	body := api.HealthzResponse{Status: "ok", Shards: make([]api.ShardHealth, len(shards))}
	scatter(shards, allShards(shards), func(c *shardClient) error {
		h := api.ShardHealth{Shard: c.shard, Addr: topo.Shards[c.shard].Addr}
		if err := c.check(ctx); err != nil {
			h.Error = err.Error()
		} else {
			h.Healthy = true
		}
		body.Shards[c.shard] = h
		return nil
	})
	for _, h := range body.Shards {
		if !h.Healthy {
			body.Status = "degraded"
		}
	}
	return body
}

// Metrics is the proxy's part of the metrics plane: the topology and the
// per-shard client gauges (JSON sections, or Prometheus families after the
// registry's). ?scope=cluster widens the view to the store nodes
// themselves: the proxy scrapes every shard's /v1/metrics and fans the
// registries in, labelled per shard — one scrape for the whole cluster.
func (p *Proxy) Metrics(ctx context.Context, req api.MetricsRequest) (api.MetricsResponse, error) {
	topo, shards := p.view()
	switch {
	case req.Scope == "cluster":
		return p.clusterMetrics(ctx, topo, shards, req.Prom)
	case req.Prom:
		var buf bytes.Buffer
		writeShardGauges(&buf, topo, shards)
		return api.MetricsResponse{Prom: buf.Bytes()}, nil
	}
	perShard := make([]map[string]interface{}, len(shards))
	for s, c := range shards {
		lat := c.lat.Snapshot()
		perShard[s] = map[string]interface{}{
			"shard":          s,
			"addr":           topo.Shards[s].Addr,
			"healthy":        c.healthy.Load(),
			"last_error":     c.lastErr.Load(),
			"inflight":       c.inflight.Load(),
			"requests_total": c.requests.Load(),
			"errors_total":   c.errors.Load(),
			"hedges_total":   c.hedges.Load(),
			"p99_ms":         lat.P99Ms,
			"latency":        lat,
		}
	}
	return api.MetricsResponse{Sections: map[string]interface{}{
		"topology": map[string]interface{}{
			"shards":     len(shards),
			"open_shard": topo.OpenShard(),
		},
		"shards": perShard,
	}}, nil
}

// writeShardGauges renders the proxy's per-shard client view — health,
// inflight, request/error/hedge totals and observed p99 — one family per
// metric with shard/addr labels.
func writeShardGauges(w *bytes.Buffer, topo *Topology, shards []*shardClient) {
	type fam struct {
		name, typ, help string
		value           func(c *shardClient) float64
	}
	boolGauge := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	fams := []fam{
		{"seqstore_shard_healthy", "gauge", "Whether the last exchange with the shard succeeded.",
			func(c *shardClient) float64 { return boolGauge(c.healthy.Load()) }},
		{"seqstore_shard_inflight", "gauge", "Requests currently in flight to the shard.",
			func(c *shardClient) float64 { return float64(c.inflight.Load()) }},
		{"seqstore_shard_requests_total", "counter", "Requests sent to the shard.",
			func(c *shardClient) float64 { return float64(c.requests.Load()) }},
		{"seqstore_shard_errors_total", "counter", "Failed exchanges with the shard.",
			func(c *shardClient) float64 { return float64(c.errors.Load()) }},
		{"seqstore_shard_hedges_total", "counter", "Hedged attempts launched against the shard.",
			func(c *shardClient) float64 { return float64(c.hedges.Load()) }},
		{"seqstore_shard_latency_p99_seconds", "gauge", "Observed p99 latency of the shard from this proxy.",
			func(c *shardClient) float64 { return c.lat.Snapshot().P99Ms / 1e3 }},
	}
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for s, c := range shards {
			fmt.Fprintf(w, "%s{shard=\"%d\",addr=%q} %g\n", f.name, s, topo.Shards[s].Addr, f.value(c))
		}
	}
}

// clusterMetrics scrapes every shard's JSON /v1/metrics once and serves
// either cluster view from the bodies. Each body decodes into the node
// registry's Snapshot, which also validates it. The Prometheus view renders
// the snapshots through the node's own writer, a shard label on every
// sample; the JSON view embeds the bodies verbatim under per-shard
// entries. A scrape pointed at the proxy therefore sees the whole
// cluster's registries without knowing the store nodes exist.
//
// A shard the scrape cannot reach costs only its own numbers: the view
// renders the shards that answered, seqstore_shard_scrape_up says which
// ones did, and a dead shard's JSON entry carries its error instead of
// metrics. The view fails (503) only when no shard answered.
func (p *Proxy) clusterMetrics(ctx context.Context, topo *Topology, shards []*shardClient, prom bool) (api.MetricsResponse, error) {
	type shardMetrics struct {
		Shard   int             `json:"shard"`
		Addr    string          `json:"addr"`
		Metrics json.RawMessage `json:"metrics,omitempty"`
		Error   string          `json:"error,omitempty"`
	}
	bodies := make([]shardMetrics, len(shards))
	parts := make([]telemetry.Part, len(shards))
	fails := scatter(shards, allShards(shards), func(c *shardClient) error {
		resp, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, true)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("shard %d: metrics scrape returned %d", c.shard, resp.status)
		}
		part := telemetry.Part{Label: "shard", Value: strconv.Itoa(c.shard)}
		if err := json.Unmarshal(resp.body, &part.Snapshot); err != nil {
			return fmt.Errorf("shard %d: undecodable metrics body: %v", c.shard, err)
		}
		parts[c.shard] = part
		bodies[c.shard] = shardMetrics{Shard: c.shard, Addr: topo.Shards[c.shard].Addr, Metrics: resp.body}
		return nil
	})
	if len(fails) > 0 && len(fails) == len(shards) {
		return api.MetricsResponse{}, p.scatterError(fails)
	}
	for _, f := range fails {
		bodies[f.shard] = shardMetrics{Shard: f.shard, Addr: topo.Shards[f.shard].Addr, Error: f.err.Error()}
	}
	if !prom {
		return api.MetricsResponse{Sections: map[string]interface{}{"scope": "cluster", "shards": bodies}, Whole: true}, nil
	}
	// Only an answering shard's part is labelled.
	var live []telemetry.Part
	for _, part := range parts {
		if part.Label != "" {
			live = append(live, part)
		}
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, live...); err != nil {
		return api.MetricsResponse{}, fmt.Errorf("cluster: prometheus render: %w", err)
	}
	buf.WriteString("# HELP seqstore_shard_scrape_up Whether this scrape reached the shard.\n# TYPE seqstore_shard_scrape_up gauge\n")
	for s, part := range parts {
		up := 0
		if part.Label != "" {
			up = 1
		}
		fmt.Fprintf(&buf, "seqstore_shard_scrape_up{shard=\"%d\"} %d\n", s, up)
	}
	return api.MetricsResponse{Prom: buf.Bytes(), Whole: true}, nil
}

// --- Point reads -------------------------------------------------------------

// fanOut groups the rows of a batched point read by owning shard, runs
// fetch once per touched shard, and leaves result placement to fetch: it
// receives the shard's local row indices and the request positions they
// answer, in per-shard request order. A read of one element — a lone
// /v1/cell or /v1/row, or a batch of one — fails as its one exchange
// (shardError); a longer batch fails as a scatter (scatterError), however
// many shards it touched.
func (p *Proxy) fanOut(rows []int, fetch func(c *shardClient, lo int, local, pos []int) error) error {
	topo, shards := p.view()
	type group struct{ local, pos []int }
	groups := make([]group, len(shards))
	var targets []int
	for pos, i := range rows {
		s := topo.Locate(i)
		if s < 0 {
			return &api.Error{Status: http.StatusBadRequest, Code: api.CodeOutOfRange,
				Message: fmt.Sprintf("row %d is outside every shard's range", i)}
		}
		if len(groups[s].pos) == 0 {
			targets = append(targets, s)
		}
		groups[s].local = append(groups[s].local, i-topo.Shards[s].Lo)
		groups[s].pos = append(groups[s].pos, pos)
	}
	fails := scatter(shards, targets, func(c *shardClient) error {
		g := groups[c.shard]
		return fetch(c, topo.Shards[c.shard].Lo, g.local, g.pos)
	})
	switch {
	case len(fails) == 0:
		return nil
	case len(rows) == 1:
		return shardError(shards[fails[0].shard], fails[0].err)
	}
	return p.scatterError(fails)
}

// Cells fans a batched cell lookup out to the owning shards — one
// /v1/cells per shard carrying its cells — and reassembles the responses
// in the original request order, with row indices global on the way out
// and back.
func (p *Proxy) Cells(ctx context.Context, reqs []api.CellRequest) ([]api.CellResponse, error) {
	rows := make([]int, len(reqs))
	for k, req := range reqs {
		if req.ByLabel() {
			return nil, api.Invalid("the proxy is index-addressed: use integer i and j (label maps live on the store nodes)")
		}
		rows[k] = req.I
	}
	out := make([]api.CellResponse, len(reqs))
	err := p.fanOut(rows, func(c *shardClient, lo int, local, pos []int) error {
		var spec strings.Builder
		for k, i := range local {
			if k > 0 {
				spec.WriteByte(',')
			}
			fmt.Fprintf(&spec, "%d:%d", i, reqs[pos[k]].J)
		}
		var body api.CellsResponse
		if err := c.exchange(ctx, http.MethodGet, "/v1/cells?at="+spec.String(), nil, &body, true); err != nil {
			return err
		}
		if len(body.Cells) != len(pos) {
			return fmt.Errorf("shard %d returned %d cells, expected %d", c.shard, len(body.Cells), len(pos))
		}
		for k, cell := range body.Cells {
			cell.I += lo
			out[pos[k]] = cell
		}
		return nil
	})
	return out, err
}

// Rows fans a batched row reconstruction out by shard and reassembles in
// request order, re-mapping row indices to global.
func (p *Proxy) Rows(ctx context.Context, idx []int) ([]api.RowResponse, error) {
	out := make([]api.RowResponse, len(idx))
	err := p.fanOut(idx, func(c *shardClient, lo int, local, pos []int) error {
		var body api.RowsResponse
		if err := c.exchange(ctx, http.MethodGet, "/v1/rows?i="+query.SpecOf(local).String(), nil, &body, true); err != nil {
			return err
		}
		if len(body.Rows) != len(pos) {
			return fmt.Errorf("shard %d returned %d rows, expected %d", c.shard, len(body.Rows), len(pos))
		}
		for k, row := range body.Rows {
			row.I += lo
			out[pos[k]] = row
		}
		return nil
	})
	return out, err
}

// --- Aggregates (scatter/gather) ---------------------------------------------

// mergeShardExplains folds the explain blocks the shards returned (indexed
// by shard, nil where a shard had no fragment) into the proxy's top-level
// view: numeric fields sum across shards (the scattered fragments
// partition the selection, so the sums describe the whole query), the plan
// label survives when the shards agree and degrades to "mixed" otherwise,
// Workers reports the widest shard, Shards keeps each block in shard order,
// and Cost is the proxy's own ledger — the fold of every winning attempt's
// cost headers.
func mergeShardExplains(ctx context.Context, exs []*api.Explain) *api.Explain {
	e := &api.Explain{}
	for s, se := range exs {
		if se == nil {
			continue
		}
		if len(e.Shards) == 0 {
			e.Plan, e.ChunkRows = se.Plan, se.ChunkRows
		} else {
			if se.Plan != e.Plan {
				e.Plan = "mixed"
			}
			if se.ChunkRows != e.ChunkRows {
				e.ChunkRows = 0 // per-shard; see Shards
			}
		}
		e.Shards = append(e.Shards, api.ShardExplain{Shard: s, Explain: *se})
		if se.Workers > e.Workers {
			e.Workers = se.Workers
		}
		e.Cells += se.Cells
		e.Chunks += se.Chunks
		e.Runs += se.Runs
		e.CoalescedScans += se.CoalescedScans
		e.ScanRows += se.ScanRows
		e.PointRows += se.PointRows
		e.ZeroRows += se.ZeroRows
		e.EstRowsRead += se.EstRowsRead
		e.EstDiskAccesses += se.EstDiskAccesses
		e.EstPagesTouched += se.EstPagesTouched
		e.EstDeltasProbed += se.EstDeltasProbed
	}
	e.Cost = trace.LedgerFrom(ctx).Snapshot()
	return e
}

// AggregateBatch scatters a whole aggregate batch: split each validated
// selection by shard row ranges, send each shard one /v1/aggregate/batch
// carrying the fragments of every query that touches it (one round trip per
// touched shard), and merge each query's exact
// partials in shard order. Because every partial carries exact accumulator
// state and the final rounding runs through the same finalize code a store
// node uses, each result is bit-identical to a single node evaluating the
// unsplit selection — for every aggregate, any shard count, any per-shard
// worker count. A lone aggregate is a batch of one: one item per touched
// shard. A query a shard fails costs that query its result, mirroring the
// single-node batch contract, with the shard's status, code and message
// and the failing shards named, as a scatter whose shards all refused; a
// shard-level failure fails the request with the shard detail.
func (p *Proxy) AggregateBatch(ctx context.Context, b api.BatchQuery) ([]api.AggregateResult, error) {
	if b.Partial {
		return nil, api.Invalid("partial evaluation is the shard-internal wire form; the proxy returns finished values")
	}
	topo, shards := p.view()
	ranges := topo.Ranges()
	out := make([]api.AggregateResult, len(b.Queries))

	// Per-shard batch under construction: the fragment requests plus the
	// query index each one answers.
	type shardBatch struct {
		queries []api.AggregateRequest
		qi      []int
	}
	batches := make([]shardBatch, len(shards))
	for qi, q := range b.Queries {
		if q.Agg == query.Count {
			continue // selection arithmetic: answered without a shard
		}
		frags, err := q.Rows.Split(ranges)
		if err != nil {
			out[qi].Err = err
			continue
		}
		cols := q.Cols.String()
		for s := range frags {
			if frags[s].Len() == 0 {
				continue
			}
			batches[s].queries = append(batches[s].queries, api.AggregateRequest{
				F:       q.F,
				Rows:    frags[s].String(),
				Cols:    cols,
				Explain: q.Explain,
			})
			batches[s].qi = append(batches[s].qi, qi)
		}
	}
	var targets []int
	for s := range batches {
		if len(batches[s].queries) > 0 {
			targets = append(targets, s)
		}
	}

	// partials[qi][s] is query qi's partial from shard s; itemErrs[qi][s]
	// records a per-item remote failure (each slot is written by at most
	// one scatter goroutine per shard, so placement is race-free; the
	// merge below runs after the barrier).
	partials := make([][]*query.Partial, len(b.Queries))
	explains := make([][]*api.Explain, len(b.Queries))
	itemErrs := make([][]*remoteError, len(b.Queries))
	for qi := range b.Queries {
		partials[qi] = make([]*query.Partial, len(shards))
		explains[qi] = make([]*api.Explain, len(shards))
		itemErrs[qi] = make([]*remoteError, len(shards))
	}
	fails := scatter(shards, targets, func(c *shardClient) error {
		sb := &batches[c.shard]
		var resp api.BatchAggregateResponse
		err := c.exchange(ctx, http.MethodPost, "/v1/aggregate/batch",
			api.BatchAggregateRequest{Queries: sb.queries, Partial: true}, &resp, true)
		if err != nil {
			return err
		}
		if len(resp.Items) != len(sb.queries) {
			return fmt.Errorf("shard %d returned %d items, expected %d", c.shard, len(resp.Items), len(sb.queries))
		}
		for k, item := range resp.Items {
			qi := sb.qi[k]
			if item.Status != http.StatusOK {
				itemErrs[qi][c.shard] = &remoteError{status: item.Status, code: item.Code, msg: item.Error}
				continue
			}
			part, err := decodePartial(item.Partial)
			if err != nil {
				return err
			}
			partials[qi][c.shard] = part
			explains[qi][c.shard] = item.Explain
		}
		return nil
	})
	if len(fails) > 0 {
		return nil, p.scatterError(fails)
	}

	for qi, q := range b.Queries {
		if out[qi].Err != nil {
			continue // failed to split
		}
		var refused []shardFailure
		for s, re := range itemErrs[qi] {
			if re != nil {
				refused = append(refused, shardFailure{shard: s, addr: shards[s].addr, err: re})
			}
		}
		if len(refused) > 0 {
			out[qi].Err = p.scatterError(refused)
			continue
		}
		resp := q.Response()
		if q.Agg == query.Count {
			cells := int64(q.Rows.Len()) * int64(q.Cols.Len())
			resp.Value, resp.Nonfinite = api.Float(float64(cells))
			if q.Explain {
				cost := trace.LedgerFrom(ctx).Snapshot()
				resp.Explain = &api.Explain{Plan: query.PlanCount, Cells: cells, Cost: cost}
			}
			out[qi].Response = resp
			continue
		}
		v, err := query.MergePartials(q.Agg, partials[qi])
		if err != nil {
			out[qi].Err = err
			continue
		}
		resp.Value, resp.Nonfinite = api.Float(v)
		if q.Explain {
			resp.Explain = mergeShardExplains(ctx, explains[qi])
		}
		out[qi].Response = resp
	}
	return out, nil
}

// --- Writes ------------------------------------------------------------------

// Bulk forwards the raw NDJSON append to the open-ended shard — the one
// whose range absorbs new rows — and re-maps the assigned row indices to
// global. The body is never parsed here: validation belongs to the store
// node that owns the rows. Appends are not idempotent, so they are never
// hedged.
func (p *Proxy) Bulk(ctx context.Context, body io.Reader) (api.BulkResponse, error) {
	var none api.BulkResponse
	topo, shards := p.view()
	open := topo.OpenShard()
	if open < 0 {
		return none, &api.Error{
			Status:  http.StatusForbidden,
			Code:    api.CodeNotWritable,
			Message: "topology has no open-ended shard: every row range is closed, so the cluster cannot absorb appends",
		}
	}
	raw, err := io.ReadAll(io.LimitReader(body, api.MaxBulkBody+1))
	if err != nil {
		return none, api.Invalid("bulk: reading body: %v", err)
	}
	if len(raw) > api.MaxBulkBody {
		return none, api.Invalid("bulk: body exceeds %d bytes", api.MaxBulkBody)
	}
	c := shards[open]
	resp, err := c.do(ctx, http.MethodPost, "/v1/bulk", raw, false)
	if err != nil {
		return none, shardError(c, err)
	}
	if resp.status/100 != 2 {
		return none, shardError(c, decodeRemote(resp))
	}
	var out api.BulkResponse
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return none, shardError(c, fmt.Errorf("shard %d (%s): undecodable bulk response: %v", c.shard, c.addr, err))
	}
	lo := topo.Shards[open].Lo
	for k := range out.Items {
		if out.Items[k].Create.Status == http.StatusCreated {
			out.Items[k].Create.Row += lo
		}
	}
	p.markDimsStale()
	return out, nil
}
