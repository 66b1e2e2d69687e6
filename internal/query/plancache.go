package query

import (
	"container/list"
	"hash/maphash"
	"reflect"
	"sync"
	"sync/atomic"

	"seqstore/internal/core"
	"seqstore/internal/linalg"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// This file implements the query-plan cache. Every aggregate evaluation
// derives per-query state from its selection before touching a single U
// row: the coalesced row-run schedule, on the projected path a |C|×k panel
// of the selected V rows, and on SVDD stores the selection digest the delta
// overlay reads (deltas.go). For the ad hoc dashboards the paper's
// warehouse setting implies, the same handful of selections is issued over
// and over, so that derivation is pure overhead after the first request.
// A PlanCache memoizes it in a sharded LRU keyed by a canonical hash of
// the selection, verified by full selection equality on every hit so a
// hash collision can never serve another query's panel.
//
// Staleness: a plan is pure function of (store identity, selection) except
// for the V panel and σ, which a recompression/reshape replaces. Plans are
// therefore tagged with the cache's epoch; the serving layer bumps the
// epoch (and purges) from the ingestion tier's invalidation hook, so a
// post-fold query can never reuse a pre-fold plan even in the in-place
// FoldIn case where the store pointer survives.
// The pointer-swap case (Recompress replacing the cold store) is caught
// twice: by the epoch and by the plan's recorded store identity.

// planShards is the number of independently locked LRU shards; selections
// hash uniformly so eight shards keep contention negligible at serving
// concurrency.
const planShards = 8

// planSeed keys the canonical selection hash; process-local, like the
// runtime's own map hashing.
var planSeed = maphash.MakeSeed()

// scanRun is one maximal run of consecutive ascending selected rows,
// stored as a half-open position interval [lo, hi) into sel.Rows. Runs
// clipped to a worker chunk reproduce exactly the runs the unclipped
// serial loop would find inside that chunk, because consecutiveness is a
// local property — so a single global schedule serves every worker count.
type scanRun struct {
	lo, hi int
}

// plan is the memoized per-(store, selection) evaluation state. Immutable
// after construction except for the lazily built projection panel and
// selection digest, each guarded by a sync.Once so concurrent requests
// build it at most once.
type plan struct {
	src   store.Store // identity tag; verified on every cache hit
	epoch uint64      // cache epoch at build time; stale plans are dropped
	rows  []int       // owned copy of the selection, verified on hit
	cols  []int

	base  *svd.Store  // non-nil on the projected/factored paths
	svdd  *core.Store // additionally non-nil for delta/zero-row handling
	sigma []float64
	runs  []scanRun
	// ascending: the rows are strictly ascending — distinct, and already
	// in the order the delta walk visits them, a slab per run.
	ascending bool

	// Projection panel, built on first use by a Min/Max-style projected
	// evaluation; factored Sum/Avg/StdDev plans never pay for it.
	panelOnce sync.Once
	panel     *linalg.Matrix // |C|×k: V rows of the selected columns

	// Selection digest, built on first use by an evaluation (or EXPLAIN)
	// over an SVDD store; plain-SVD plans never pay for it.
	digestOnce sync.Once
	digest     selDigest
}

// buildPlanWith derives the plan for a validated selection. When copySel
// is set the selection slices are copied — required for cached plans,
// which outlive the request that built them; transient single-use plans
// alias the caller's slices instead.
func buildPlanWith(s store.Store, sel Selection, epoch uint64, copySel bool) *plan {
	p := &plan{
		src:   s,
		epoch: epoch,
		rows:  sel.Rows,
		cols:  sel.Cols,
	}
	p.runs, p.ascending = buildRuns(sel.Rows)
	if copySel {
		p.rows = append([]int(nil), sel.Rows...)
		p.cols = append([]int(nil), sel.Cols...)
	}
	if p.base = factoredBase(s); p.base != nil {
		p.svdd, _ = s.(*core.Store)
		p.sigma = p.base.Sigma()
	}
	return p
}

// panelFor returns the plan's projection panel, building it on first use.
func (p *plan) panelFor() *linalg.Matrix {
	p.panelOnce.Do(func() {
		k := p.base.K()
		v := p.base.V()
		p.panel = linalg.NewMatrix(len(p.cols), k)
		for pos, j := range p.cols {
			copy(p.panel.Row(pos), v.Row(j))
		}
	})
	return p.panel
}

// buildRuns computes the maximal consecutive ascending runs of rows as
// position intervals, and whether the rows are strictly ascending
// throughout. Singleton "runs" are kept, so the runs tile every position:
// the scan threshold applies after clipping to a worker chunk (pieceIter).
func buildRuns(rows []int) (runs []scanRun, ascending bool) {
	runs = make([]scanRun, 0, 8)
	ascending = true
	for p := 0; p < len(rows); {
		if p > 0 && rows[p] <= rows[p-1] {
			ascending = false
		}
		q := p + 1
		for q < len(rows) && rows[q] == rows[q-1]+1 {
			q++
		}
		runs = append(runs, scanRun{lo: p, hi: q})
		p = q
	}
	return runs, ascending
}

// pieceIter walks the U-row reads that selection positions [lo, hi) — one
// worker chunk — decompose into: each maximal run, clipped to the chunk,
// is one sequential scan when at least minScanRun rows long and one point
// read per row otherwise. It owns the three decisions every consumer of
// the schedule must agree on (where the chunk enters the schedule, how
// runs clip to it, what is worth a scan): readURows executes its pieces
// and ExplainQuery replays them, so the cost model cannot drift from the
// engine. A value type driven by next — nothing here allocates.
type pieceIter struct {
	pl      *plan
	ri      int // run holding position pos
	pos, hi int // positions still to cover

	// The current piece: U rows [start, end), scanned or point-read.
	start, end int
	scan       bool
}

// pieces starts the walk of positions [lo, hi) at the first run whose hi
// exceeds lo. A hand-rolled binary search: sort.Search's closure would
// heap-allocate once per worker chunk on the zero-alloc hot path.
func (p *plan) pieces(lo, hi int) pieceIter {
	i, j := 0, len(p.runs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p.runs[h].hi > lo {
			j = h
		} else {
			i = h + 1
		}
	}
	return pieceIter{pl: p, ri: i, pos: lo, hi: hi}
}

// next advances to the next piece, reporting false when [lo, hi) is
// covered. Runs tile the positions, so the fragment at pos is the rest of
// its run up to hi; a fragment too short to scan stays too short as its
// rows are handed out one by one.
func (it *pieceIter) next() bool {
	if it.pos >= it.hi {
		return false
	}
	if it.pos == it.pl.runs[it.ri].hi {
		it.ri++
	}
	n := min(it.pl.runs[it.ri].hi, it.hi) - it.pos
	if it.scan = n >= minScanRun; !it.scan {
		n = 1
	}
	it.start = it.pl.rows[it.pos]
	it.end = it.start + n
	it.pos += n
	return true
}

// zeroFlagged reports whether the current piece is an isolated §6.2
// zero-flagged row, answered from the in-memory flag with no U access.
// Zero rows inside a scan are scanned like any other.
func (it *pieceIter) zeroFlagged() bool {
	return !it.scan && it.pl.svdd != nil && it.pl.svdd.IsZeroRow(it.start)
}

// matches reports whether the plan was built for exactly this store and
// selection — the collision guard behind the canonical hash.
func (p *plan) matches(s store.Store, sel Selection) bool {
	if p.src != s || len(p.rows) != len(sel.Rows) || len(p.cols) != len(sel.Cols) {
		return false
	}
	for i, r := range sel.Rows {
		if p.rows[i] != r {
			return false
		}
	}
	for i, c := range sel.Cols {
		if p.cols[i] != c {
			return false
		}
	}
	return true
}

// PlanCacheStats is the observable state of a PlanCache, surfaced as
// plan_cache_* gauges on /v1/metrics.
type PlanCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Size      int
	Capacity  int
}

// PlanCache memoizes query plans in a sharded LRU. Safe for concurrent
// use; a nil *PlanCache is valid and caches nothing, so callers thread it
// unconditionally.
type PlanCache struct {
	perShard  int
	epoch     atomic.Uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	shards    [planShards]planShard
}

type planShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[uint64]*list.Element
}

type planEntry struct {
	key uint64
	pl  *plan
}

// NewPlanCache builds a cache holding approximately capacity plans,
// rounded up to a multiple of the shard count. capacity <= 0 returns nil
// (caching disabled).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + planShards - 1) / planShards
	c := &PlanCache{perShard: per}
	for s := range c.shards {
		c.shards[s].ll = list.New()
		c.shards[s].items = make(map[uint64]*list.Element)
	}
	return c
}

// selectionKey is the canonical hash of (store identity, selection). Only
// pointer-shaped stores are cacheable; cacheable=false bypasses the cache.
func selectionKey(s store.Store, sel Selection) (key uint64, cacheable bool) {
	rv := reflect.ValueOf(s)
	if rv.Kind() != reflect.Pointer {
		return 0, false
	}
	var h maphash.Hash
	h.SetSeed(planSeed)
	writeInt := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	writeInt(uint64(rv.Pointer()))
	writeInt(uint64(len(sel.Rows)))
	for _, r := range sel.Rows {
		writeInt(uint64(r))
	}
	for _, c := range sel.Cols {
		writeInt(uint64(c))
	}
	return h.Sum64(), true
}

func (c *PlanCache) shard(key uint64) *planShard {
	return &c.shards[key%planShards]
}

// Epoch returns the current invalidation epoch (0 on nil).
func (c *PlanCache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// get returns the cached plan for (s, sel), or nil. Hits require the
// stored plan to match the selection exactly and to carry the current
// epoch; stale or colliding entries are evicted on sight.
func (c *PlanCache) get(key uint64, s store.Store, sel Selection) *plan {
	if c == nil {
		return nil
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	pl := el.Value.(*planEntry).pl
	if pl.epoch != c.epoch.Load() || !pl.matches(s, sel) {
		sh.ll.Remove(el)
		delete(sh.items, key)
		c.misses.Add(1)
		return nil
	}
	sh.ll.MoveToFront(el)
	c.hits.Add(1)
	return pl
}

// put inserts a freshly built plan, evicting the shard's LRU entry when
// over capacity. A plan built against an epoch that has since moved on is
// dropped: caching it would resurrect state the invalidation just purged.
func (c *PlanCache) put(key uint64, pl *plan) {
	if c == nil || pl.epoch != c.epoch.Load() {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		el.Value.(*planEntry).pl = pl
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&planEntry{key: key, pl: pl})
	if sh.ll.Len() > c.perShard {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.items, back.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
}

// Invalidate bumps the epoch and purges every cached plan. The serving
// layer calls it from the ingestion invalidation hooks (fold-in and
// reshape): the epoch bump first closes the in-flight-build race — a plan
// derived from pre-mutation state can no longer be inserted — and the
// purge drops what is already resident.
func (c *PlanCache) Invalidate() {
	if c == nil {
		return
	}
	c.epoch.Add(1)
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		sh.ll.Init()
		sh.items = make(map[uint64]*list.Element)
		sh.mu.Unlock()
	}
}

// Stats snapshots the cache counters (zero value on nil).
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	st := PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.perShard * planShards,
	}
	for s := range c.shards {
		c.shards[s].mu.Lock()
		st.Size += c.shards[s].ll.Len()
		c.shards[s].mu.Unlock()
	}
	return st
}

// planFor resolves the plan for one evaluation: cache hit when possible,
// fresh build otherwise (inserted for the next request). The ledger
// records the outcome so /v1/debug/traces attributes plan reuse per
// request.
func planFor(s store.Store, sel Selection, env evalEnv) *plan {
	if env.plans == nil {
		return buildPlanWith(s, sel, 0, false)
	}
	key, cacheable := selectionKey(s, sel)
	if !cacheable {
		return buildPlanWith(s, sel, env.plans.Epoch(), false)
	}
	if pl := env.plans.get(key, s, sel); pl != nil {
		env.led.PlanHit()
		return pl
	}
	env.led.PlanMiss()
	pl := buildPlanWith(s, sel, env.plans.Epoch(), true)
	env.plans.put(key, pl)
	return pl
}
