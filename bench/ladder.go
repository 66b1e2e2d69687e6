package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/server"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/trace"
)

// span is one recorded call into a layer. Spans of one replayed op share
// its index; Parent names the rung that would have made the call in a real
// request (the ladder replays rungs one at a time, so nesting is by name).
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(op int, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
}

// timed runs fn once under a span and returns its duration.
func (t *tracer) timed(name, parent string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.record(-1, name, parent, start, end)
	return end.Sub(start), err
}

// perIter times n back-to-back calls and returns the mean cost of one in
// nanoseconds, for kernels too short to time singly.
func perIter(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// allocsPer returns the mean heap allocations of one call of fn.
func allocsPer(n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink float64

// ladderRun is the state of one traced run.
type ladderRun struct {
	rg  *rig
	sz  sizes
	tr  *tracer
	res *result // every rung is one attempted check
}

func (l *ladderRun) set(name string, v float64) { l.res.set(perLayer, name, v) }

func (l *ladderRun) fail(err error) { l.res.fail(1, err) }

// must records a failed rung; the metrics it would have set stay 0.
func (l *ladderRun) must(what string, err error) bool {
	l.res.Attempted++
	if err != nil {
		l.fail(fmt.Errorf("%s: %w", what, err))
		return false
	}
	return true
}

// runTraced is the separate traced run: one set-up with its stages timed,
// the micro rungs on a probe matrix, the workload's first ops replayed
// serially through the ladder of entry points, and a short untraced
// closed-loop run for the client- and runtime-side numbers.
func runTraced(wl workload, o options) (*result, error) {
	rg, err := newRig(wl, o.sz, filepath.Join(o.outDir, "tmp"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer rg.close()
	l := &ladderRun{rg: rg, sz: o.sz, tr: &tracer{t0: time.Now()}, res: newResult()}
	l.set("setup.datagen_ms", ms(rg.stage.Datagen))
	l.set("setup.write_ms", ms(rg.stage.Write))
	l.set("setup.compress_ms", ms(rg.stage.Compress))
	l.set("setup.listen_ms", ms(rg.stage.Listen))
	l.set("setup.peak_rss_mb", peakRSSMB()) // peak_rss_mb restarts the mark after set-up
	l.set("store.save_ms", ms(rg.stage.Save))
	l.set("store.open_ms", ms(rg.stage.Open))

	probe := l.compressRungs()
	l.kernelRungs(probe)
	if probe != nil {
		l.ingestRungs(probe)
	}
	var st *stream
	if wl.topo != topoNone {
		st = newStream(wl, o.sz, o.seed, numClients(), wl.rows(o.sz), o.sz.Cols)
		l.replay(st)
	}
	l.clientRun(st, o.seconds/4)

	if err := l.writeTrace(o); err != nil {
		return nil, err
	}
	l.res.Correct = l.res.Failed == 0 && l.res.Attempted > 0
	return l.res, nil
}

// writeTrace writes the spans to <out>/trace_<workload>.json.
func (l *ladderRun) writeTrace(o options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.workload, o.seed, l.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "trace_"+o.workload+".json"), append(raw, '\n'), 0o644)
}

// --- compress-side rungs ----------------------------------------------------

// compressRungs times the compression pipeline stage by stage on the probe
// matrix — the first ProbeN rows of the workload's dataset, which is
// exactly the matrix compress_batch compresses per op — and returns the
// probe's default-options store for the ingest rungs. The rungs are the
// public entry points core.Compress itself chains: matio scan → svd pass 1
// (Gram accumulation, eigensolve) → core pass 2.
func (l *ladderRun) compressRungs() *core.Store {
	tr, dir := l.tr, l.rg.dir
	x := dataset.Subset(l.rg.x, l.sz.ProbeN)
	n, m := x.Dims()
	path := filepath.Join(dir, "probe.smx")

	d, err := tr.timed("matio.write", "compress", func() error { return matio.WriteMatrix(path, x) })
	if !l.must("matio write", err) {
		return nil
	}
	l.set("matio.write_rows_per_s", float64(n)/d.Seconds())
	f, err := matio.Open(path)
	if !l.must("matio open", err) {
		return nil
	}
	defer f.Close()

	d, err = tr.timed("matio.scan", "svd.accumulate_c", func() error {
		return f.ScanRows(func(int, []float64) error { return nil })
	})
	if l.must("matio scan", err) {
		l.set("matio.scan_rows_per_s", float64(n)/d.Seconds())
	}
	rng := rand.New(rand.NewSource(1))
	row := make([]float64, m)
	reads := l.sz.MicroIter
	d, err = tr.timed("matio.read_row", "", func() error {
		for i := 0; i < reads; i++ {
			if err := f.ReadRow(rng.Intn(n), row); err != nil {
				return err
			}
		}
		return nil
	})
	if l.must("matio read row", err) {
		l.set("matio.read_row_us", us(d)/float64(reads))
	}

	// Pass 1, serial and with every CPU, then its eigensolve on its own.
	var c *linalg.Matrix
	acc1, err := tr.timed("svd.accumulate_c.w1", "", func() (err error) { _, err = svd.AccumulateCWorkers(f, 1); return })
	l.must("accumulate C serial", err)
	accP, err := tr.timed("svd.accumulate_c", "core.compress", func() (err error) { c, err = svd.AccumulateCWorkers(f, 0); return })
	if !l.must("accumulate C", err) {
		return nil
	}
	l.set("svd.accumulate_c_ms", ms(accP))
	l.set("svd.accumulate_c_speedup", acc1.Seconds()/accP.Seconds())
	d, err = tr.timed("linalg.symeigen", "core.compress", func() (err error) { _, err = linalg.SymEigen(c); return })
	if l.must("symeigen", err) {
		l.set("linalg.symeigen_ms", ms(d))
	}

	// The compressor as core.Compress chains it: factors, then the fused
	// scoring + U emission pass.
	var fac *svd.Factors
	dFac, err := tr.timed("svd.factors", "core.compress", func() (err error) { fac, err = svd.ComputeFactorsWorkers(f, 0); return })
	if !l.must("factors", err) {
		return nil
	}
	var st *core.Store
	p2, err := tr.timed("core.pass2", "core.compress", func() (err error) {
		st, err = core.CompressWithFactors(f, fac, core.Options{Budget: budget})
		return
	})
	if !l.must("pass 2", err) {
		return nil
	}
	l.set("core.pass2_ms", ms(p2))
	l.set("core.compress_ms", ms(dFac+p2))
	p2serial, err := tr.timed("core.pass2.w1", "", func() (err error) {
		_, err = core.CompressWithFactors(f, fac, core.Options{Budget: budget, Workers: 1})
		return
	})
	if l.must("pass 2 serial", err) {
		// The scans are what workers shard; the eigensolve between them is
		// serial either way and is left out of the ratio.
		l.set("core.compress_worker_speedup", (acc1+p2serial).Seconds()/(accP+p2).Seconds())
	}
	d, err = tr.timed("core.compress_rand", "", func() (err error) {
		_, err = core.Compress(f, core.Options{Budget: budget, Compressor: svd.CompressorRandomized})
		return
	})
	if l.must("randomized compress", err) {
		l.set("core.compress_rand_ms", ms(d))
	}
	d, err = tr.timed("svd.compute_u", "", func() error {
		return svd.ComputeUWorkers(f, fac, st.K(), 0, func(int, []float64) error { return nil })
	})
	if l.must("compute U", err) {
		l.set("svd.compute_u_ms", ms(d))
	}

	rmspe, space, err := quality(x, st)
	if l.must("probe quality", err) && (space > budget || rmspe <= 0) {
		l.fail(fmt.Errorf("probe store: space %.4f, rmspe %.3f%%", space, rmspe))
	}
	return st
}

// kernelRungs times the linalg kernels at the lengths the serving path
// uses them, and the read primitives of svd and core on the served store
// (the probe's store for compress_batch, which serves nothing).
func (l *ladderRun) kernelRungs(probe *core.Store) {
	st := l.rg.ref
	if st == nil {
		st = probe
	}
	if st == nil {
		return
	}
	n, m := st.Dims()
	k := st.K()
	rng := rand.New(rand.NewSource(2))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	ak, bk, am, bm := vec(k), vec(k), vec(m), vec(m)
	iters := l.sz.MicroIter * 50
	l.set("linalg.dot_k_ns", perIter(iters, func() { sink += linalg.Dot(ak, bk) }))
	l.set("linalg.dot_m_ns", perIter(iters, func() { sink += linalg.Dot(am, bm) }))
	l.set("linalg.axpy_k_ns", perIter(iters, func() { linalg.Axpy(1e-9, ak, bk) }))
	l.set("linalg.axpy_m_ns", perIter(iters, func() { linalg.Axpy(1e-9, am, bm) }))

	base := st.Base()
	row := make([]float64, m)
	keys := make([]int, l.sz.MicroIter)
	for i := range keys {
		keys[i] = rng.Intn(n)
	}
	var err error
	at := 0
	next := func() int { at++; return keys[at%len(keys)] }
	l.set("svd.row_us", perIter(len(keys), func() { _, err = base.Row(next(), row) })/1e3)
	l.must("svd row", err)
	l.set("core.row_us", perIter(len(keys), func() { _, err = st.Row(next(), row) })/1e3)
	l.must("core row", err)
	probes0, _ := st.ProbeStats()
	var v float64
	l.set("core.cell_ns", perIter(len(keys), func() { v, err = st.Cell(next(), at%m); sink += v }))
	l.must("core cell", err)
	probes1, _ := st.ProbeStats()
	l.set("core.delta_probes_per_cell", float64(probes1-probes0)/float64(len(keys)))

	d, err := l.tr.timed("svd.scan_urows", "query", func() error {
		return base.ScanURows(0, n, func(_ int, u []float64) error { sink += u[0]; return nil })
	})
	if l.must("scan U rows", err) {
		l.set("svd.scan_urows_per_s", float64(n)/d.Seconds())
	}
}

// --- write-path rungs -------------------------------------------------------

// poolRows returns count raw rows past the first n of the dataset: new
// customers, as the bulk documents carry them.
func (l *ladderRun) poolRows(n, count int) [][]float64 {
	src := dataset.NewPhoneSource(phoneConfig(n+count, l.sz.Cols))
	rows := make([][]float64, count)
	for i := range rows {
		rows[i] = make([]float64, l.sz.Cols)
		if err := src.ReadRow(n+i, rows[i]); err != nil {
			panic(err) // in range by construction
		}
	}
	return rows
}

// ingestRungs walks the write path from the bottom on a private tier over
// the probe's store, with the background compactor off so each step is
// timed alone: WAL append + fsync, AppendBatch, one fold, a compaction, a
// full recompression, and a reopen that replays the WAL.
func (l *ladderRun) ingestRungs(probe *core.Store) {
	tr, dir := l.tr, l.rg.dir
	n, m := probe.Dims()
	const batches = 32
	rows := l.poolRows(n, batches*bulkRows)

	// The WAL alone: 8 records and one fsync per append.
	wal, _, err := ingest.OpenWAL(filepath.Join(dir, "probe-only.wal"), m)
	if !l.must("open WAL", err) {
		return
	}
	var walLat []time.Duration
	for b := 0; b < batches; b++ {
		recs := make([]ingest.Record, bulkRows)
		for r := range recs {
			recs[r] = ingest.Record{Index: n + b*bulkRows + r, Row: rows[b*bulkRows+r]}
		}
		d, err := tr.timed("ingest.wal_append", "ingest.append_batch", func() error { return wal.Append(recs) })
		if !l.must("WAL append", err) {
			break
		}
		walLat = append(walLat, d)
	}
	wal.Close()
	l.set("ingest.wal_append_us", medianDur(walLat, time.Microsecond))

	// A fold by itself, on a store nothing else reads.
	var foldLat []time.Duration
	foldStore, err := probe.SliceRows(0, n)
	if l.must("clone probe store", err) {
		for _, row := range rows[:64] {
			d, err := tr.timed("core.foldin", "ingest.compact", func() (err error) {
				_, err = foldStore.FoldIn(row, ingest.DefaultMaxDeltas)
				return
			})
			if !l.must("fold in", err) {
				break
			}
			foldLat = append(foldLat, d)
		}
		l.set("core.foldin_us", medianDur(foldLat, time.Microsecond))
	}

	// The tier: append, compact, recompress, crash, recover.
	sqz, walPath := filepath.Join(dir, "probe.sqz"), filepath.Join(dir, "probe.sqz.wal")
	if !l.must("save probe store", store.SaveLabeled(sqz, probe, nil)) {
		return
	}
	opts := ingest.Options{CompactAfter: ingestCompactRows, PersistPath: sqz, DisableBackground: true, Logger: quietLogger()}
	ti, err := ingest.Open(probe, nil, walPath, opts)
	if !l.must("open probe tier", err) {
		return
	}
	defer func() { ti.Close() }()
	var appendLat []time.Duration
	for b := 0; b < batches; b++ {
		batch := rows[b*bulkRows : (b+1)*bulkRows]
		d, err := tr.timed("ingest.append_batch", "server.bulk", func() (err error) {
			_, err = ti.AppendBatch(context.Background(), nil, batch)
			return
		})
		if !l.must("append batch", err) {
			return
		}
		appendLat = append(appendLat, d)
	}
	l.set("ingest.append_batch_us", medianDur(appendLat, time.Microsecond))
	var compactLat []time.Duration
	for c := 0; c < 2; c++ { // leaves half the appended rows hot for the recovery below
		d, err := tr.timed("ingest.compact", "", func() (err error) { _, err = ti.Compact(); return })
		if !l.must("compact", err) {
			return
		}
		compactLat = append(compactLat, d)
	}
	l.set("ingest.compact_ms", medianDur(compactLat, time.Millisecond))
	d, err := tr.timed("ingest.recompress", "", ti.Recompress)
	if l.must("recompress", err) {
		l.set("ingest.recompress_ms", ms(d))
	}
	want, _ := ti.Dims()
	if !l.must("close probe tier", ti.Close()) {
		return
	}
	d, err = tr.timed("ingest.recovery", "", func() error {
		cold, labels, err := store.LoadLabeled(sqz)
		if err != nil {
			return err
		}
		// ti keeps pointing at the closed tier unless the reopen succeeds
		// (a second Close is a no-op); the deferred Close needs a tier.
		re, err := ingest.Open(cold, labels, walPath, opts)
		if err == nil {
			ti = re
		}
		return err
	})
	if l.must("recover probe tier", err) {
		l.set("ingest.recovery_ms", ms(d))
		if got, _ := ti.Dims(); got != want {
			l.fail(fmt.Errorf("recovered probe tier has %d rows, want %d", got, want))
		}
	}
}

// --- the serving ladder -----------------------------------------------------

// errSkip marks an op kind a rung has no entry point for.
var errSkip = errors.New("skip")

// rung is one layer's entry point. do executes an op and returns the extra
// information the rung's counters need (a response, for header checks).
type rung struct {
	name   string // the layer, for spans
	parent string // the rung above
	do     func(o *op) error
}

// rungTimes are one rung's per-kind samples, plus what recording their
// spans cost.
type rungTimes struct {
	lat      [numKinds][]time.Duration
	op       [numKinds][]int // index in the replayed ops of each sample
	total    time.Duration   // sum of every sample
	spanCost time.Duration   // time spent appending spans, outside the samples
}

func (t *rungTimes) med(k opKind) float64 { return medianDur(t.lat[k], time.Microsecond) }

// ladderCap bounds one rung's replay; the outermost rung runs first and
// the count it reaches under the cap is what every inner rung replays.
const ladderCap = 3 * time.Second

// walk replays ops through one rung, serially, recording one span per
// call. A sample ends before its span is appended, and the appends are
// timed on their own, so the cost of tracing is known and not in the data.
func (l *ladderRun) walk(r rung, ops []op, limit time.Duration) (*rungTimes, int) {
	t := &rungTimes{}
	begin := time.Now()
	done := 0
	for i := range ops {
		if limit > 0 && time.Since(begin) > limit {
			break
		}
		o := &ops[i]
		start := time.Now()
		err := r.do(o)
		end := time.Now()
		done++
		if err == errSkip {
			continue
		}
		if !l.must(r.name+" "+kindNames[o.kind], err) {
			continue
		}
		l.tr.record(i, r.name+"."+kindNames[o.kind], r.parent, start, end)
		t.spanCost += time.Since(end)
		t.lat[o.kind] = append(t.lat[o.kind], end.Sub(start))
		t.op[o.kind] = append(t.op[o.kind], i)
		t.total += end.Sub(start)
	}
	return t, done
}

// parsePools pre-parses the pooled queries and batches, so the query rung
// times evaluation alone; the handler rung above it pays for parsing, as
// it does in production.
func parsePools(st *stream, n, m int) (queries []query.BatchItem, batches [][]query.BatchItem, err error) {
	parse := func(qs []aggQuery) ([]query.BatchItem, error) {
		out := make([]query.BatchItem, len(qs))
		for i, q := range qs {
			if out[i].Agg, out[i].Sel, err = parseQuery(q, n, m); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if queries, err = parse(st.queries); err != nil {
		return nil, nil, err
	}
	batches = make([][]query.BatchItem, len(st.batches))
	for b := range batches {
		if batches[b], err = parse(st.batches[b].items); err != nil {
			return nil, nil, err
		}
	}
	return queries, batches, nil
}

// handlerRung serves ops from a Handler on a recorder: the server layer
// without sockets. last holds the most recent response for header checks.
type handlerRung struct {
	h    http.Handler
	st   *stream
	last *httptest.ResponseRecorder
}

func (hr *handlerRung) do(o *op, point string) error {
	method, path, body := hr.st.wire(o, point)
	hr.last = httptest.NewRecorder()
	hr.h.ServeHTTP(hr.last, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if hr.last.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", hr.last.Code, bytes.TrimSpace(hr.last.Body.Bytes()))
	}
	return nil
}

// replay runs the first client's first LadderOps ops through the ladder.
// Every rung gets caches of its own in the state the set-up left them, so
// all rungs see the same hits and misses; a rung's self time is its median
// minus the median of the rung below.
func (l *ladderRun) replay(st *stream) {
	rg, sz := l.rg, l.sz
	all := st.ops[0]
	if len(all) > sz.LadderOps {
		all = all[:sz.LadderOps]
	}
	served := rg.served()
	n, m := rg.ref.Dims()
	queries, batches, err := parsePools(st, n, m)
	if !l.must("parse pools", err) {
		return
	}
	direct, err := rg.directNode()
	if !l.must("direct node", err) {
		return
	}
	// Under ingest the keys count back from the newest row; the ladder
	// resolves them against the cold size, so every rung reads the same rows.
	pathOf := func(o *op) string {
		if o.path != "" {
			return o.path
		}
		return pointPath(o.kind, n-1-int(o.i), int(o.j))
	}
	rowOf := func(o *op) int {
		if o.path != "" {
			return int(o.i)
		}
		return n - 1 - int(o.i)
	}

	// Outermost first: the network rungs, through one keep-alive client.
	cl := newClient(nil)
	defer cl.hc.CloseIdleConnections()
	netRung := func(name, parent, base string) rung {
		return rung{name, parent, func(o *op) error {
			method, path, body := st.wire(o, pathOf(o))
			_, err := cl.send(method, base+path, body)
			return err
		}}
	}
	ops := all
	var viaProxy *rungTimes
	if rg.proxy != nil {
		before := l.proxyShards()
		var done int
		viaProxy, done = l.walk(netRung("cluster", "client", rg.url), ops, ladderCap)
		ops = ops[:done]
		after := l.proxyShards()
		l.set("cluster.shard_calls_per_op", (after.requests-before.requests)/float64(done))
		l.set("cluster.hedges", after.hedges-before.hedges)
	}
	viaNode, done := l.walk(netRung("http", "cluster", direct.url), ops, ladderCap)
	ops = ops[:done]

	// The handler on a recorder. Read-only rigs get a fresh Handler (cold
	// caches, like the node's were); the tier's handler is the node's own,
	// because a second one would take over the tier's invalidation hooks.
	var h *server.Handler
	if rg.tier != nil {
		h = direct.handler
	} else {
		h = server.NewHandler(rg.ref, nil, server.Options{
			CacheRows: serverCacheRows, QueryWorkers: serverQueryWorker, Logger: quietLogger()})
	}
	hr := &handlerRung{h: h, st: st}
	hits0, miss0, _, _ := h.CacheStats()
	var cells, disk float64
	viaHandler, _ := l.walk(rung{"server", "http", func(o *op) error {
		if err := hr.do(o, pathOf(o)); err != nil {
			return err
		}
		if o.kind == opCell {
			da, err := strconv.Atoi(hr.last.Header().Get(trace.HeaderDiskAccesses))
			if err != nil || da < 0 || da > 1 {
				return fmt.Errorf("%s = %q, want 0 or 1", trace.HeaderDiskAccesses, hr.last.Header().Get(trace.HeaderDiskAccesses))
			}
			cells++
			disk += float64(da)
		}
		return nil
	}}, ops, 0)
	hits1, miss1, _, _ := h.CacheStats()
	if lookups := float64(hits1 - hits0 + miss1 - miss0); lookups > 0 {
		l.set("server.row_cache_hit_frac", float64(hits1-hits0)/lookups)
	}
	if cells > 0 {
		l.set("server.disk_accesses_per_cell", disk/cells)
	}

	// Innermost: the store and the query engine, called directly. The plan
	// cache is the handler's default size and starts cold, like the node's.
	plans := query.NewPlanCache(server.DefaultPlanCacheSize)
	qopts := query.Options{Workers: serverQueryWorker, Plans: plans}
	buf := make([]float64, m)
	inner, _ := l.walk(rung{"core", "server", func(o *op) error {
		switch o.kind {
		case opCell:
			v, err := served.Cell(rowOf(o), int(o.j))
			sink += v
			return err
		case opRow:
			_, err := served.Row(rowOf(o), buf)
			return err
		case opAgg:
			v, err := query.EvaluateOpts(served, queries[o.q].Agg, queries[o.q].Sel, qopts)
			sink += v
			return err
		case opBatch:
			_, err := query.EvaluateBatch(served, batches[o.q], qopts)
			return err
		}
		return errSkip // a bulk's inner rungs are the ingest rungs
	}}, ops, 0)
	if ps := plans.Stats(); ps.Hits+ps.Misses > 0 {
		l.set("query.plan_hit_frac", float64(ps.Hits)/float64(ps.Hits+ps.Misses))
	}

	// The aggregate samples by plan class: factored (sum/avg), stddev
	// (Gram moments), projected (min/max).
	var class [3][]time.Duration
	for s, d := range inner.lat[opAgg] {
		fn := int(ops[inner.op[opAgg][s]].q) % len(aggFns)
		c := [len(aggFns)]int{0, 0, 1, 2, 2}[fn]
		class[c] = append(class[c], d)
	}
	l.set("query.eval_factored_us", medianDur(class[0], time.Microsecond))
	l.set("query.eval_stddev_us", medianDur(class[1], time.Microsecond))
	l.set("query.eval_projected_us", medianDur(class[2], time.Microsecond))

	l.set("server.handler_cell_us", viaHandler.med(opCell))
	l.set("server.handler_row_us", viaHandler.med(opRow))
	l.set("server.handler_agg_us", viaHandler.med(opAgg))
	l.set("server.handler_bulk_us", viaHandler.med(opBulk))
	l.set("query.batch_us", inner.med(opBatch))
	self := func(name string, outer, below *rungTimes, k opKind) {
		if len(outer.lat[k]) > 0 {
			l.set(name, outer.med(k)-below.med(k))
		}
	}
	self("server.cell_self_us", viaHandler, inner, opCell)
	self("server.row_self_us", viaHandler, inner, opRow)
	self("server.agg_self_us", viaHandler, inner, opAgg)
	l.set("http.node_cell_us", viaNode.med(opCell))
	l.set("http.node_agg_us", viaNode.med(opAgg))
	self("http.node_self_us", viaNode, viaHandler, opCell)
	top := viaNode
	if viaProxy != nil {
		l.set("cluster.proxy_cell_us", viaProxy.med(opCell))
		l.set("cluster.proxy_agg_us", viaProxy.med(opAgg))
		self("cluster.hop_cell_self_us", viaProxy, viaNode, opCell)
		self("cluster.hop_agg_self_us", viaProxy, viaNode, opAgg)
		top = viaProxy
	}

	// What a serial client sees on the op kind the workload is about (the
	// self times above telescope to exactly this), and what recording the
	// outermost rung's spans cost relative to the calls they record.
	if k := rg.wl.primary; len(top.lat[k]) > 0 {
		l.set("bench.serial_p50_us", top.med(k))
	}
	if top.total > 0 {
		l.set("bench.span_overhead_frac", top.spanCost.Seconds()/top.total.Seconds())
	}

	l.set("server.allocs_per_cell", l.allocsOf(ops, opCell, func(o *op) { hr.do(o, pathOf(o)) }))
	l.set("query.allocs_per_eval", l.allocsOf(ops, opAgg, func(o *op) {
		v, _ := query.EvaluateOpts(served, queries[o.q].Agg, queries[o.q].Sel, qopts)
		sink += v
	}))
	if rg.proxy != nil {
		l.partialRungs(ops, queries)
	}
}

// allocsOf returns the mean allocations of fn over the ops of one kind.
func (l *ladderRun) allocsOf(ops []op, k opKind, fn func(o *op)) float64 {
	var sel []*op
	for i := range ops {
		if ops[i].kind == k {
			sel = append(sel, &ops[i])
		}
	}
	at := 0
	return allocsPer(len(sel), func() { fn(sel[at]); at++ })
}

// partialRungs times the scatter/gather arithmetic the proxy adds to an
// aggregate, without the network: each shard's partial encoded to its SQP1
// frame, and the frames decoded and merged. The merged value must equal
// the single-node evaluation bit for bit.
func (l *ladderRun) partialRungs(ops []op, queries []query.BatchItem) {
	var encLat, mergeLat []time.Duration
	qopts := query.Options{Workers: serverQueryWorker}
	for i := range ops {
		if ops[i].kind != opAgg {
			continue
		}
		q := queries[ops[i].q]
		frags, err := query.SplitSelection(q.Sel, l.rg.ranges)
		if !l.must("split selection", err) {
			return
		}
		var frames [][]byte
		var enc time.Duration
		for s, frag := range frags {
			if len(frag.Rows) == 0 {
				continue
			}
			p, err := query.EvaluatePartial(l.rg.shards[s], q.Agg, frag, qopts)
			if !l.must("evaluate partial", err) {
				return
			}
			d, err := l.tr.timed("query.partial_encode", "cluster.agg", func() error {
				raw, err := p.MarshalBinary()
				frames = append(frames, raw)
				return err
			})
			if !l.must("encode partial", err) {
				return
			}
			enc += d
		}
		var got float64
		d, err := l.tr.timed("query.merge_partials", "cluster.agg", func() error {
			parts := make([]*query.Partial, len(frames))
			for s, raw := range frames {
				parts[s] = new(query.Partial)
				if err := parts[s].UnmarshalBinary(raw); err != nil {
					return err
				}
			}
			var err error
			got, err = query.MergePartials(q.Agg, parts)
			return err
		})
		if !l.must("merge partials", err) {
			return
		}
		want, err := query.EvaluateOpts(l.rg.ref, q.Agg, q.Sel, qopts)
		if l.must("reference aggregate", err) && got != want && !(got != got && want != want) {
			l.fail(fmt.Errorf("merged partials give %v, single node %v", got, want))
		}
		encLat = append(encLat, enc)
		mergeLat = append(mergeLat, d)
	}
	l.set("query.partial_encode_us", medianDur(encLat, time.Microsecond))
	l.set("query.merge_partials_us", medianDur(mergeLat, time.Microsecond))
}

// shardCounters are the proxy's per-shard client counters, summed.
type shardCounters struct{ requests, hedges float64 }

// proxyShards reads the counters from the proxy's /v1/metrics, the way an
// operator would.
func (l *ladderRun) proxyShards() shardCounters {
	var c shardCounters
	resp, err := http.Get(l.rg.url + "/v1/metrics")
	if !l.must("proxy metrics", err) {
		return c
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	var body struct {
		Shards []struct {
			Requests float64 `json:"requests_total"`
			Hedges   float64 `json:"hedges_total"`
		} `json:"shards"`
	}
	if err == nil {
		err = json.Unmarshal(raw, &body)
	}
	l.must("proxy metrics body", err)
	for _, s := range body.Shards {
		c.requests += s.Requests
		c.hedges += s.Hedges
	}
	return c
}

// --- the untraced closed-loop run -------------------------------------------

// clientRun is a short run of the real workload with tracing off, for the
// numbers only a concurrent client can see: per-kind latency, the share of
// slow or failed ops, and what the process spent per op.
func (l *ladderRun) clientRun(st *stream, seconds float64) {
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	cpu0 := cpuTime()
	io0 := storageBytesWritten()
	// The tier's counters are totals since set-up, and the ladder's rungs
	// have appended and folded rows through it already: the window's share
	// is the difference from here.
	var tier0 ingest.Stats
	if ti := l.rg.tier; ti != nil {
		tier0 = ti.Stats()
	}
	ops := 0
	if l.rg.wl.topo == topoNone {
		cr := driveCompress(l.rg, seconds)
		l.res.Attempted += cr.attempted
		l.res.fail(cr.failed, cr.firstErr)
		ops = len(cr.lat)
		n, _ := l.rg.x.Dims()
		if ops > 0 {
			l.set("client.compress_rows_per_s", float64(n)*cr.opsPerSec())
		}
		l.set("client.fail_frac", float64(cr.failed)/float64(cr.attempted))
	} else {
		r := drive(l.rg, st, seconds)
		attempted, failed, sloMiss, busy, err := r.totals()
		l.res.Attempted += attempted
		l.res.fail(failed, err)
		for k := opKind(0); k < numKinds; k++ {
			ops += r.count(k)
		}
		l.set("client.cell_p50_ms", r.percentileMs(opCell, 0.50))
		l.set("client.cell_p99_ms", r.windowP99Ms(opCell))
		l.set("client.row_p50_ms", r.percentileMs(opRow, 0.50))
		l.set("client.row_p99_ms", r.windowP99Ms(opRow))
		l.set("client.agg_p50_ms", r.percentileMs(opAgg, 0.50))
		l.set("client.agg_p99_ms", r.windowP99Ms(opAgg))
		l.set("client.batch_p50_ms", r.percentileMs(opBatch, 0.50))
		l.set("client.bulk_p50_ms", r.percentileMs(opBulk, 0.50))
		l.set("client.bulk_p99_ms", r.windowP99Ms(opBulk))
		if attempted > 0 {
			l.set("client.slo_miss_frac", float64(sloMiss)/float64(attempted))
			l.set("client.fail_frac", float64(failed)/float64(attempted))
		}
		// What the client loop spends outside waiting for a reply: building
		// requests, checking answers, recording samples.
		l.set("client.gen_busy_frac", 1-busy.Seconds()/(r.elapsed.Seconds()*float64(len(r.clients))))
		if ti := l.rg.tier; ti != nil {
			s := ti.Stats()
			appended := float64(s.Appended - tier0.Appended)
			l.set("client.ingest_rows_per_s", float64(r.count(opBulk)*bulkRows)/r.window.Seconds())
			l.set("ingest.compactions", float64(s.Compactions-tier0.Compactions))
			l.set("ingest.recompressions", float64(s.Recompressions-tier0.Recompressions))
			l.set("ingest.rows_folded", float64(s.Folded-tier0.Folded))
			// A maximum has no difference: this one is over the tier's life,
			// the ladder's compactions included.
			l.set("ingest.max_compact_pause_us", float64(s.MaxCompactPauseUs))
			if appended > 0 {
				// One fsync per acknowledged batch plus one per checkpoint.
				l.set("ingest.wal_syncs_per_batch", float64(s.WalSyncs-tier0.WalSyncs)/(appended/bulkRows))
				// Bytes the process sent to storage per byte of row data it
				// accepted: WAL appends, checkpoint rewrites and the cold
				// segment rewritten by every compaction.
				l.set("ingest.bytes_written_per_user_byte",
					float64(storageBytesWritten()-io0)/(appended*float64(l.sz.Cols)*8))
			}
			checked, wrong, _, err := r.verifyDurability()
			l.res.Attempted += checked
			l.res.fail(wrong, err)
		} else {
			checked, wrong, err := r.verifyAggregates()
			l.res.Attempted += checked
			l.res.fail(wrong, err)
		}
	}
	runtime.ReadMemStats(&gc1)
	if ops > 0 {
		l.set("runtime.cpu_ms_per_op", ms(cpuTime()-cpu0)/float64(ops))
		l.set("runtime.allocs_per_op", float64(gc1.Mallocs-gc0.Mallocs)/float64(ops))
	}
	l.set("runtime.gc_pause_ms_total", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
}
