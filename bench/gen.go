package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"

	"seqstore/internal/api"
	"seqstore/internal/dataset"
	"seqstore/internal/query"
)

// opKind is the request type of one op; latencies are kept per kind.
type opKind uint8

const (
	opCell opKind = iota
	opRow
	opAgg
	opBatch
	opBulk
	opCompress
	numKinds
)

var kindNames = [numKinds]string{"cell", "row", "agg", "batch", "bulk", "compress"}

// op is one pre-generated request. Everything the client sends is decided
// here, from the seed, before the clock starts.
type op struct {
	kind opKind
	i, j int32   // cell/row key; for ingest_mixed i is the distance from the newest row
	q    int32   // agg: index into stream.queries; batch: into stream.batches
	path string  // GET target for cell/row ops with a fixed key
	rows []int32 // bulk: indexes into stream.lines
}

// aggFns are the aggregate functions by plan class: sum/avg evaluate
// factored, stddev through the Gram moments, min/max projected.
var aggFns = [...]string{"sum", "avg", "stddev", "min", "max"}

// selection is one pooled row/column selection in wire form.
type selection struct{ rows, cols string }

// aggQuery is one (function, selection) pair and its pre-marshalled body.
type aggQuery struct {
	fn   string
	sel  selection
	body []byte
}

// batchBody is one pre-marshalled /v1/aggregate/batch request.
type batchBody struct {
	items []aggQuery // body unset; kept for the reference evaluation
	body  []byte
}

// stream is everything generated from the seed for one run: the shared
// pools and one op list per client.
type stream struct {
	queries []aggQuery // AggPool selections × len(aggFns), selection-major
	batches []batchBody
	lines   [][]byte    // pre-rendered NDJSON documents for /v1/bulk
	values  [][]float64 // the values each line parses to
	ops     [][]op      // per client
}

// colSpec draws a window covering 5–50 % of the m days and selects either
// all of it ("180:240") or — every other draw — one weekday inside it, the
// ad hoc "Mondays in Q3" shape, spelled out as a list.
func colSpec(rng *rand.Rand, m int) string {
	width := m/20 + rng.Intn(m/2-m/20+1)
	if width < 1 {
		width = 1
	}
	lo := rng.Intn(m - width + 1)
	if rng.Intn(2) == 0 || width < 14 {
		return fmt.Sprintf("%d:%d", lo, lo+width)
	}
	var sb strings.Builder
	for j := lo + rng.Intn(7); j < lo+width; j += 7 {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(j))
	}
	return sb.String()
}

// rowSpec draws a contiguous customer range covering 1–25 % of n rows.
func rowSpec(rng *rand.Rand, n int) (lo, hi int) {
	width := n/100 + rng.Intn(n/4-n/100+1)
	if width < 1 {
		width = 1
	}
	lo = rng.Intn(n - width + 1)
	return lo, lo + width
}

func marshal(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings cannot fail to marshal
	}
	return raw
}

// genPools builds the aggregate and batch pools over an n×m store.
func (s *stream) genPools(rng *rand.Rand, sz sizes, n, m int) {
	type span struct{ lo, hi int }
	spans := make([]span, sz.AggPool)
	sels := make([]selection, sz.AggPool)
	for p := range sels {
		lo, hi := rowSpec(rng, n)
		spans[p] = span{lo, hi}
		sels[p] = selection{rows: fmt.Sprintf("%d:%d", lo, hi), cols: colSpec(rng, m)}
		for _, fn := range aggFns {
			s.queries = append(s.queries, aggQuery{fn: fn, sel: sels[p],
				body: marshal(api.AggregateRequest{F: fn, Rows: sels[p].rows, Cols: sels[p].cols})})
		}
	}
	// A batch is four queries over one pooled selection's columns whose row
	// ranges overlap by three quarters, so the shared U scan has something
	// to share.
	for b := 0; b < sz.BatchPool; b++ {
		p := rng.Intn(sz.AggPool)
		width := spans[p].hi - spans[p].lo
		step := width / 4
		var req api.BatchAggregateRequest
		var items []aggQuery
		for t := 0; t < batchQueries; t++ {
			lo := spans[p].lo + t*step
			if lo+width > n {
				lo = n - width
			}
			q := aggQuery{fn: aggFns[rng.Intn(len(aggFns))],
				sel: selection{rows: fmt.Sprintf("%d:%d", lo, lo+width), cols: sels[p].cols}}
			items = append(items, q)
			req.Queries = append(req.Queries, api.AggregateRequest{F: q.fn, Rows: q.sel.rows, Cols: q.sel.cols})
		}
		s.batches = append(s.batches, batchBody{items: items, body: marshal(req)})
	}
}

// genLines renders RowPool new customers (rows past the cold segment of
// the same seeded dataset) as /v1/bulk documents, three decimals each, and
// keeps the values those documents parse to for the read-back check.
func (s *stream) genLines(sz sizes, n int) {
	src := dataset.NewPhoneSource(phoneConfig(n+sz.RowPool, sz.Cols))
	row := make([]float64, sz.Cols)
	for p := 0; p < sz.RowPool; p++ {
		if err := src.ReadRow(n+p, row); err != nil {
			panic(err) // the index is in range by construction
		}
		line := []byte(`{"values":[`)
		vals := make([]float64, len(row))
		for j, v := range row {
			if j > 0 {
				line = append(line, ',')
			}
			start := len(line)
			line = strconv.AppendFloat(line, v, 'f', 3, 64)
			vals[j], _ = strconv.ParseFloat(string(line[start:]), 64)
		}
		s.lines = append(s.lines, append(line, "]}\n"...))
		s.values = append(s.values, vals)
	}
}

// pointOp draws a cell (three in four) or row read on row i.
func pointOp(rng *rand.Rand, i, m int, fixedKey bool) op {
	o := op{kind: opCell, i: int32(i), j: int32(rng.Intn(m))}
	if rng.Intn(4) == 0 {
		o.kind = opRow
	}
	if fixedKey {
		o.path = pointPath(o.kind, int(o.i), int(o.j))
	}
	return o
}

func pointPath(kind opKind, i, j int) string {
	if kind == opRow {
		return "/v1/row?i=" + strconv.Itoa(i)
	}
	return "/v1/cell?i=" + strconv.Itoa(i) + "&j=" + strconv.Itoa(j)
}

// aggOp draws a pooled query: the selection by Zipf rank, the plan class
// (factored, stddev, projected) uniformly, then the function in the class.
func (s *stream) aggOp(rng *rand.Rand, zipf *rand.Zipf) op {
	fn := [...]int{rng.Intn(2), 2, 3 + rng.Intn(2)}[rng.Intn(3)]
	return op{kind: opAgg, q: int32(int(zipf.Uint64())*len(aggFns) + fn)}
}

func (s *stream) batchOp(rng *rand.Rand) op {
	return op{kind: opBatch, q: int32(rng.Intn(len(s.batches)))}
}

// fixtureSeed generates everything that is part of the set-up rather than
// of the traffic: the query pools and the Zipf-rank → row permutation.
const fixtureSeed = 42

// wire returns the HTTP form of an op: method, path and body. point is the
// resolved path of a cell or row read.
func (s *stream) wire(o *op, point string) (method, path string, body []byte) {
	switch o.kind {
	case opCell, opRow:
		return http.MethodGet, point, nil
	case opAgg:
		return http.MethodPost, "/v1/aggregate", s.queries[o.q].body
	case opBatch:
		return http.MethodPost, "/v1/aggregate/batch", s.batches[o.q].body
	case opBulk:
		for _, l := range o.rows {
			body = append(body, s.lines[l]...)
		}
		return http.MethodPost, "/v1/bulk", body
	}
	panic("bench: op kind " + kindNames[o.kind] + " has no HTTP form") // streams hold none
}

// newStream generates the run's inputs for a serving workload over an n×m
// store (compress_batch has no stream: every op is the same compression).
func newStream(wl workload, sz sizes, seed int64, clients, n, m int) *stream {
	s := &stream{ops: make([][]op, clients)}
	// The pools are fixtures like the dataset: Zipf sends a fifth of the
	// draws to the first pooled selection, so pools drawn per seed made the
	// cost of an "average" aggregate swing ±30 % from seed to seed. The
	// seed decides which pooled entries and keys are asked for, and when.
	pools := rand.New(rand.NewSource(fixtureSeed))
	s.genPools(pools, sz, n, m)
	if wl.topo == topoWritable {
		s.genLines(sz, n)
	}
	// Zipf ranks map to rows through one seeded permutation, so the hot
	// set is scattered over the row space (and over both shards).
	perm := pools.Perm(n)
	for c := range s.ops {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		selZipf := rand.NewZipf(rng, zipfS, 1, uint64(sz.AggPool-1))
		keyZipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
		ops := make([]op, sz.Ops)
		for k := range ops {
			u := rng.Float64()
			switch wl.name {
			case wlPointRead:
				ops[k] = pointOp(rng, rng.Intn(n), m, true)
			case wlAggAdhoc:
				if u < 0.8 {
					ops[k] = s.aggOp(rng, selZipf)
				} else {
					ops[k] = s.batchOp(rng)
				}
			case wlProxyMixed:
				switch {
				case u < 0.6:
					ops[k] = pointOp(rng, perm[keyZipf.Uint64()], m, true)
				case u < 0.9:
					ops[k] = s.aggOp(rng, selZipf)
				default:
					ops[k] = s.batchOp(rng)
				}
			case wlIngestMixed:
				switch {
				case u < 0.4:
					rows := make([]int32, bulkRows)
					for r := range rows {
						rows[r] = int32(rng.Intn(len(s.lines)))
					}
					ops[k] = op{kind: opBulk, rows: rows}
				case u < 0.9:
					// i counts back from the newest row at send time:
					// small ranks hit the hot segment, the tail is cold.
					ops[k] = pointOp(rng, int(keyZipf.Uint64()), m, false)
				default:
					ops[k] = s.aggOp(rng, selZipf)
				}
			}
		}
		s.ops[c] = ops
	}
	return s
}

// parseQuery resolves a wire query against an n×m store for the reference
// evaluation.
func parseQuery(q aggQuery, n, m int) (query.Aggregate, query.Selection, error) {
	agg, err := query.ParseAggregate(q.fn)
	if err != nil {
		return 0, query.Selection{}, err
	}
	rows, err := query.ParseIndexSpec(q.sel.rows, n)
	if err != nil {
		return 0, query.Selection{}, err
	}
	cols, err := query.ParseIndexSpec(q.sel.cols, m)
	if err != nil {
		return 0, query.Selection{}, err
	}
	return agg, query.Selection{Rows: rows, Cols: cols}, nil
}
