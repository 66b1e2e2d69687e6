package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/ingest"
	"seqstore/internal/query"
	"seqstore/internal/store"
	"seqstore/internal/trace"
)

// Latency limits behind client.slo_miss_frac: what an analyst at a
// dashboard would call slow.
var sloLimit = [numKinds]time.Duration{
	opCell: 5 * time.Millisecond, opRow: 5 * time.Millisecond,
	opAgg: 50 * time.Millisecond, opBatch: 50 * time.Millisecond,
	opBulk: 50 * time.Millisecond,
}

// acked is one row the server acknowledged: its assigned index and the
// pool line it was rendered from.
type acked struct{ row, line int32 }

// client is one closed-loop user: one keep-alive connection, its own op
// list, its own samples. Nothing here is shared while the run is on.
type client struct {
	hc   *http.Client
	ops  []op
	buf  bytes.Buffer
	rowA []float64 // scratch for reference rows

	lat       [numKinds][numSlices][]time.Duration // by kind and window slice
	attempted int
	failed    int
	sloMiss   int
	busy      time.Duration // time spent waiting on the server, measured ops only
	firstErr  error

	aggBits   map[int32]uint64   // query index → value bits, first answer seen
	batchBits map[int32][]uint64 // batch index → item value bits
	acks      []acked
}

func newClient(ops []op) *client {
	// One connection per client, reused for the whole run: the users are
	// dashboards that keep their connection open.
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}
	return &client{
		hc:        &http.Client{Transport: tr, Timeout: 60 * time.Second},
		ops:       ops,
		aggBits:   make(map[int32]uint64),
		batchBits: make(map[int32][]uint64),
	}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// send issues one request and reads the whole reply into c.buf.
func (c *client) send(method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return resp, nil
}

// run is one measured closed-loop run against a rig.
type run struct {
	rig     *rig
	st      *stream
	clients []*client
	rows    atomic.Int64 // rows the served store holds (grows under ingest)
	rows0   int          // rows it held when the run began
	window  time.Duration
	elapsed time.Duration // wall time from the end of warm-up to the last reply
}

// do executes one op and returns how long the client waited for it. seq is
// the client's op counter; it selects the ops whose values are compared.
func (r *run) do(c *client, o *op, seq int) (time.Duration, error) {
	i := int(o.i)
	point := o.path
	if point == "" && o.kind <= opRow { // ingest_mixed: the key counts back from the newest row
		i = int(r.rows.Load()) - 1 - i
		point = pointPath(o.kind, i, int(o.j))
	}
	method, path, body := r.st.wire(o, point)
	t := time.Now()
	resp, err := c.send(method, r.rig.url+path, body)
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	switch o.kind {
	case opCell, opRow:
		if o.kind == opCell {
			// The paper's claim, checked on every cell: one disk access
			// at most (none when the row cache or the hot segment had it).
			if da := resp.Header.Get(trace.HeaderDiskAccesses); da != "0" && da != "1" {
				return d, fmt.Errorf("%s: %s = %q, want 0 or 1", path, trace.HeaderDiskAccesses, da)
			}
		}
		if seq%checkEvery == 0 && r.rig.tier == nil {
			return d, r.checkPoint(c, o, i)
		}
	case opAgg:
		var ar api.AggregateResponse
		if err := json.Unmarshal(c.buf.Bytes(), &ar); err != nil {
			return d, fmt.Errorf("aggregate reply: %w", err)
		}
		bits := math.Float64bits(api.NumValue(ar.Value, ar.Nonfinite))
		if r.rig.tier == nil { // a store under ingest has no fixed answer
			if prev, seen := c.aggBits[o.q]; seen && prev != bits {
				q := &r.st.queries[o.q]
				return d, fmt.Errorf("aggregate %s %v answered %x then %x", q.fn, q.sel, prev, bits)
			}
			c.aggBits[o.q] = bits
		}
	case opBatch:
		var br api.BatchAggregateResponse
		if err := json.Unmarshal(c.buf.Bytes(), &br); err != nil {
			return d, fmt.Errorf("batch reply: %w", err)
		}
		if br.Errors || len(br.Items) != batchQueries {
			return d, fmt.Errorf("batch %d: errors=%v items=%d", o.q, br.Errors, len(br.Items))
		}
		bits := make([]uint64, len(br.Items))
		for k, it := range br.Items {
			bits[k] = math.Float64bits(api.NumValue(it.Value, it.Nonfinite))
		}
		if prev, seen := c.batchBits[o.q]; seen {
			for k := range bits {
				if prev[k] != bits[k] {
					return d, fmt.Errorf("batch %d item %d answered %x then %x", o.q, k, prev[k], bits[k])
				}
			}
		}
		c.batchBits[o.q] = bits
	case opBulk:
		var br api.BulkResponse
		if err := json.Unmarshal(c.buf.Bytes(), &br); err != nil {
			return d, fmt.Errorf("bulk reply: %w", err)
		}
		if br.Errors || len(br.Items) != len(o.rows) {
			return d, fmt.Errorf("bulk: errors=%v items=%d", br.Errors, len(br.Items))
		}
		for k, it := range br.Items {
			if it.Create.Status != http.StatusCreated {
				return d, fmt.Errorf("bulk item %d: status %d", k, it.Create.Status)
			}
			c.acks = append(c.acks, acked{row: int32(it.Create.Row), line: o.rows[k]})
			// Appends are serialized, so the highest acknowledged index
			// bounds the rows a read may ask for.
			for {
				cur := r.rows.Load()
				if int64(it.Create.Row) < cur || r.rows.CompareAndSwap(cur, int64(it.Create.Row)+1) {
					break
				}
			}
		}
	}
	return d, nil
}

// checkPoint compares a cell or row reply, bit for bit, with a direct read
// of the unsharded core.Store.
func (r *run) checkPoint(c *client, o *op, i int) error {
	var err error
	if c.rowA, err = r.rig.ref.Row(i, c.rowA); err != nil {
		return err
	}
	if o.kind == opCell {
		var cr api.CellResponse
		if err := json.Unmarshal(c.buf.Bytes(), &cr); err != nil {
			return fmt.Errorf("cell reply: %w", err)
		}
		got, want := api.NumValue(cr.Value, cr.Nonfinite), c.rowA[o.j]
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("cell (%d,%d) = %v, store says %v", i, o.j, got, want)
		}
		return nil
	}
	var rr api.RowResponse
	if err := json.Unmarshal(c.buf.Bytes(), &rr); err != nil {
		return fmt.Errorf("row reply: %w", err)
	}
	if len(rr.Values) != len(c.rowA) {
		return fmt.Errorf("row %d: %d values, want %d", i, len(rr.Values), len(c.rowA))
	}
	for j, v := range rr.Values {
		if v == nil || math.Float64bits(*v) != math.Float64bits(c.rowA[j]) {
			return fmt.Errorf("row %d col %d differs from the store", i, j)
		}
	}
	return nil
}

// numSlices is how many equal slices the measured window is cut into. The
// rate, p50 and p90 are midmeans of the per-slice values, so a noisy
// neighbour stealing the CPU for a second or two moves slices that are
// dropped, not the result. p99 is taken over the whole window (windowP99Ms):
// a slice holds too few samples beyond it.
const numSlices = 8

// loop is one client's closed loop: warm up untimed until warmEnd, then
// record every op that completes before the deadline in the slice it
// completed in.
func (r *run) loop(c *client, warmEnd, deadline time.Time) {
	slice := deadline.Sub(warmEnd) / numSlices
	for seq := 0; ; seq++ {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		o := &c.ops[seq%len(c.ops)]
		d, err := r.do(c, o, seq)
		end := time.Now()
		if now.Before(warmEnd) || !end.Before(deadline) {
			if err != nil {
				c.attempted++
				c.fail(err)
			}
			continue
		}
		c.attempted++
		c.busy += d
		if err != nil {
			c.fail(err)
			c.sloMiss++
			continue
		}
		s := int(end.Sub(warmEnd) / slice)
		c.lat[o.kind][s] = append(c.lat[o.kind][s], d)
		if d > sloLimit[o.kind] {
			c.sloMiss++
		}
	}
}

// numClients is the closed-loop population: min(nproc, 2).
func numClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// drive runs the closed loop for the given time after a 5 % warm-up.
func drive(rg *rig, st *stream, seconds float64) *run {
	r := &run{rig: rg, st: st}
	r.rows0, _ = rg.served().Dims()
	r.rows.Store(int64(r.rows0))
	for _, ops := range st.ops {
		r.clients = append(r.clients, newClient(ops))
	}
	warm := time.Duration(0.05 * seconds * float64(time.Second))
	r.window = time.Duration(seconds * float64(time.Second))
	warmEnd := time.Now().Add(warm)
	deadline := warmEnd.Add(r.window)
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			r.loop(c, warmEnd, deadline)
		}(c)
	}
	wg.Wait()
	r.elapsed = time.Since(warmEnd)
	for _, c := range r.clients {
		c.hc.CloseIdleConnections()
	}
	return r
}

// totals folds the clients' counters.
func (r *run) totals() (attempted, failed, sloMiss int, busy time.Duration, firstErr error) {
	for _, c := range r.clients {
		attempted += c.attempted
		failed += c.failed
		sloMiss += c.sloMiss
		busy += c.busy
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}
	return
}

// latencies merges one kind's samples in one slice across clients.
func (r *run) latencies(k opKind, slice int) []time.Duration {
	var all []time.Duration
	for _, c := range r.clients {
		all = append(all, c.lat[k][slice]...)
	}
	return all
}

// count returns how many ops of kind k were measured.
func (r *run) count(k opKind) int {
	n := 0
	for s := 0; s < numSlices; s++ {
		n += len(r.latencies(k, s))
	}
	return n
}

// opsPerSec is the midmean over slices of the ops completed per second.
func (r *run) opsPerSec() float64 {
	per := make([]float64, numSlices)
	for s := range per {
		for k := opKind(0); k < numKinds; k++ {
			per[s] += float64(len(r.latencies(k, s)))
		}
		per[s] /= r.window.Seconds() / numSlices
	}
	return midmean(per)
}

// percentileMs is the midmean over slices of one kind's q-quantile latency
// in milliseconds; slices without a sample of that kind are skipped.
func (r *run) percentileMs(k opKind, q float64) float64 {
	var per []float64
	for s := 0; s < numSlices; s++ {
		if lat := durationsMs(r.latencies(k, s)); len(lat) > 0 {
			per = append(per, quantile(lat, q))
		}
	}
	return midmean(per)
}

// windowP99Ms is one kind's 99th percentile latency over the whole window,
// in milliseconds. A percentile stands on the samples beyond it, ten at
// least; one slice of a short run has two or three beyond its p99.
func (r *run) windowP99Ms(k opKind) float64 {
	var all []time.Duration
	for s := 0; s < numSlices; s++ {
		all = append(all, r.latencies(k, s)...)
	}
	return quantile(durationsMs(all), 0.99)
}

// verifyAggregates compares every aggregate answer the clients hold (single
// queries and batch items, each client's copy) with query.EvaluateOpts on
// the unsharded store, bit for bit — the proxy's scatter/gather must be
// invisible. All of them, not a sample: the pools bound the work, and each
// pooled query is evaluated once however many clients saw it. The reference
// values are computed on every CPU at once (this is the benchmark's own
// time, and the driver's budget pays for it on every run), then compared in
// pool order, so the first failure reported is the same on every run. It
// returns the number of answers checked and the number that differ.
func (r *run) verifyAggregates() (checked, wrong int, firstErr error) {
	if r.rig.tier != nil {
		return 0, 0, nil
	}
	type job struct {
		q      aggQuery
		served []uint64 // what each client that asked was told
		want   uint64
		err    error
	}
	var jobs []job
	add := func(q aggQuery, bitsOf func(c *client) (uint64, bool)) {
		var served []uint64
		for _, c := range r.clients {
			if bits, ok := bitsOf(c); ok {
				served = append(served, bits)
			}
		}
		if len(served) > 0 {
			jobs = append(jobs, job{q: q, served: served})
		}
	}
	for qi, q := range r.st.queries {
		add(q, func(c *client) (uint64, bool) { bits, ok := c.aggBits[int32(qi)]; return bits, ok })
	}
	for bi, b := range r.st.batches {
		for k, q := range b.items {
			add(q, func(c *client) (uint64, bool) {
				bits, ok := c.batchBits[int32(bi)]
				if !ok {
					return 0, false
				}
				return bits[k], true
			})
		}
	}

	n, m := r.rig.ref.Dims()
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				j := &jobs[i]
				agg, sel, err := parseQuery(j.q, n, m)
				if err == nil {
					var v float64
					v, err = query.EvaluateOpts(r.rig.ref, agg, sel, query.Options{Workers: 1})
					j.want = math.Float64bits(v)
				}
				j.err = err
			}
		}(w)
	}
	wg.Wait()

	for _, j := range jobs {
		for _, got := range j.served {
			checked++
			if j.err == nil && j.want == got {
				continue
			}
			wrong++
			if firstErr == nil {
				firstErr = fmt.Errorf("aggregate %s %v: served %x, reference %x (err %v)", j.q.fn, j.q.sel, got, j.want, j.err)
			}
		}
	}
	return
}

// verifyDurability is the crash drill. With the clients stopped but the
// server still up, the WAL and then the persisted cold segment are copied —
// what a kill -9 at that instant leaves behind (the WAL first: a compaction
// finishing between the two copies then shows up in the segment, and replay
// skips the rows it already holds). A fresh tier is opened over the copies
// the way a restarted seqserver would, and every acknowledged row is read
// back: rows replayed from the WAL must equal what was sent, rows already
// folded come back as SVDD reconstructions and must be present and finite.
// It returns the rows checked, the rows missing or wrong, and the reopen
// time.
func (r *run) verifyDurability() (checked, wrong int, reopen time.Duration, err error) {
	rg := r.rig
	walCopy := filepath.Join(rg.dir, "crash.sqz.wal")
	sqzCopy := filepath.Join(rg.dir, "crash.sqz")
	for _, cp := range [][2]string{{rg.walPath, walCopy}, {rg.sqzPath, sqzCopy}} {
		var raw []byte
		if raw, err = os.ReadFile(cp[0]); err != nil {
			return
		}
		if err = os.WriteFile(cp[1], raw, 0o644); err != nil {
			return
		}
	}

	t := time.Now()
	cold, labels, err := store.LoadLabeled(sqzCopy)
	if err != nil {
		return
	}
	ti, err := ingest.Open(cold, labels, walCopy, ingest.Options{DisableBackground: true, Logger: quietLogger()})
	if err != nil {
		return
	}
	reopen = time.Since(t)
	defer ti.Close()

	total, _ := ti.Dims()
	var row []float64
	acks := 0
	for _, c := range r.clients {
		acks += len(c.acks)
		for _, a := range c.acks {
			checked++
			var rerr error
			row, rerr = ti.Row(int(a.row), row)
			ok := rerr == nil
			hot := ti.IsHot(int(a.row))
			for j := 0; ok && j < len(row); j++ {
				ok = !math.IsNaN(row[j]) && !math.IsInf(row[j], 0)
				if ok && hot {
					ok = row[j] == r.st.values[a.line][j]
				}
			}
			if !ok {
				wrong++
			}
		}
	}
	if total != r.rows0+acks {
		wrong += abs(total - (r.rows0 + acks))
		err = fmt.Errorf("store reopened after the crash has %d rows, want %d + %d acknowledged", total, r.rows0, acks)
	}
	return
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
