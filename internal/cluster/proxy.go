package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/telemetry"
)

// DefaultTimeout bounds one store-node exchange; a shard that stays silent
// this long is reported unavailable, never waited on indefinitely.
const DefaultTimeout = 5 * time.Second

// Options configures a Proxy.
type Options struct {
	// Timeout is the per-shard request deadline; 0 means DefaultTimeout.
	Timeout time.Duration
	// HedgeAfter hedges idempotent point reads: when a store node has not
	// answered within this duration, a second identical request races the
	// first and the earlier success wins. 0 disables hedging.
	HedgeAfter time.Duration
	// MaxBatchCells/MaxBatchRows/MaxBatchQueries bound one batched
	// request, mirroring the store nodes' limits; 0 selects the defaults.
	MaxBatchCells   int
	MaxBatchRows    int
	MaxBatchQueries int
	// Logger receives the structured request log; nil silences it.
	Logger *slog.Logger
	// SlowQuery is the slow-request threshold: requests at least this slow
	// log at Warn with the full cost ledger, the trace id and the winning
	// shard set, so a p99 outlier is greppable end to end. 0 disables.
	SlowQuery time.Duration
	// TraceBuffer is the /v1/debug/traces ring capacity; 0 selects
	// trace.DefaultRingSize.
	TraceBuffer int
	// SLOObjective is the per-endpoint latency objective surfaced through
	// /v1/metrics and /v1/healthz; 0 disables SLO reporting. SLOTarget is
	// the fraction of requests that must meet the objective; 0 selects 0.99.
	SLOObjective time.Duration
	SLOTarget    float64
}

// dims is the proxy's cached view of the global matrix shape, assembled
// from per-shard /v1/info responses. It goes stale when rows are appended
// through the proxy (or the topology is swapped) and is refreshed lazily.
type dims struct {
	n, m  int
	valid bool
}

// Proxy is the stateless distributed front door: the scatter/gather
// api.Backend behind the same HTTP layer a store node uses. It owns no
// data and holds only the topology (which rows live where) plus soft state
// (health, cached dimensions). Any number of identical proxies can front
// the same store nodes.
type Proxy struct {
	timeout, hedgeAfter time.Duration

	path string // topology file; "" when built from an in-memory Topology

	http *api.Handler

	mu     sync.RWMutex
	topo   *Topology
	shards []*shardClient
	dims   dims
}

var _ api.Backend = (*Proxy)(nil)

// New builds a proxy over a topology file. The file is re-read (and the
// shard set swapped atomically) by ReloadFile — `seqserver -topology` wires
// that to SIGHUP.
func New(path string, opts Options) (*Proxy, error) {
	topo, err := LoadTopology(path)
	if err != nil {
		return nil, err
	}
	p := NewWithTopology(topo, opts)
	p.path = path
	return p, nil
}

// NewWithTopology builds a proxy over an already validated topology.
func NewWithTopology(topo *Topology, opts Options) *Proxy {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	p := &Proxy{
		timeout:    opts.Timeout,
		hedgeAfter: opts.HedgeAfter,
	}
	p.install(topo)
	p.http = api.NewHandler(p, telemetry.NewRegistry(), api.Config{
		MaxBatchCells:   opts.MaxBatchCells,
		MaxBatchRows:    opts.MaxBatchRows,
		MaxBatchQueries: opts.MaxBatchQueries,
		Logger:          opts.Logger,
		SlowQuery:       opts.SlowQuery,
		TraceBuffer:     opts.TraceBuffer,
		SLOObjective:    opts.SLOObjective,
		SLOTarget:       opts.SLOTarget,
	})
	return p
}

// install swaps in a topology and a fresh shard-client set, invalidating
// the cached dimensions, and closes the old clients' idle channels.
// In-flight requests keep the clients they already grabbed, so a reload
// never disturbs them; their channels close as they finish.
func (p *Proxy) install(topo *Topology) {
	shards := make([]*shardClient, len(topo.Shards))
	for s, sh := range topo.Shards {
		shards[s] = newShardClient(s, sh, p.timeout, p.hedgeAfter)
	}
	p.mu.Lock()
	old := p.shards
	p.topo, p.shards, p.dims = topo, shards, dims{}
	p.mu.Unlock()
	for _, c := range old {
		c.pool.close()
	}
}

// ReloadFile re-reads the topology file the proxy was built from. A
// failed load leaves the current topology serving.
func (p *Proxy) ReloadFile() error {
	if p.path == "" {
		return fmt.Errorf("cluster: proxy has no topology file to reload")
	}
	topo, err := LoadTopology(p.path)
	if err != nil {
		return err
	}
	p.install(topo)
	return nil
}

// view snapshots the current topology and shard clients.
func (p *Proxy) view() (*Topology, []*shardClient) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.topo, p.shards
}

func (p *Proxy) shardsNow() []*shardClient {
	_, shards := p.view()
	return shards
}

// ServeHTTP serves the /v1 contract through the shared HTTP layer.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.http.ServeHTTP(w, r)
}

// --- Scatter plumbing --------------------------------------------------------

// shardFailure is one store node's failure inside a scattered request.
type shardFailure struct {
	shard int
	addr  string
	err   error
}

// scatter runs fn(s) concurrently for the selected shard indices and
// returns the failures in ascending shard order (deterministic error
// bodies). fn receives the shard client and must do its own result
// placement — results are positional, so no coordination is needed beyond
// the wait. The last shard's exchange runs on the caller's goroutine,
// which would otherwise only wait: a lone read, one exchange with one
// shard, pays no goroutine hand-off.
func scatter(shards []*shardClient, idx []int, fn func(c *shardClient) error) []shardFailure {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []shardFailure
	)
	for k, s := range idx {
		c := shards[s]
		run := func() {
			if err := fn(c); err != nil {
				mu.Lock()
				errs = append(errs, shardFailure{shard: c.shard, addr: c.addr, err: err})
				mu.Unlock()
			}
		}
		if k == len(idx)-1 {
			run()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	sort.Slice(errs, func(a, b int) bool { return errs[a].shard < errs[b].shard })
	return errs
}

// allShards returns [0, 1, …, len(shards)−1].
func allShards(shards []*shardClient) []int {
	idx := make([]int, len(shards))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// scatterError is the error of a scattered request that could not
// complete. Transport-level failures (dead or stalled shards) dominate:
// they yield 503 unavailable with the failing shards detailed. When every
// failure is a remote HTTP error — a store node rejected its fragment — the
// first shard's verdict is propagated verbatim, because the shards share
// one validation and the others would have said the same.
func (p *Proxy) scatterError(fails []shardFailure) error {
	details := make([]api.ShardError, len(fails))
	transport := false
	for i, f := range fails {
		details[i] = api.ShardError{Shard: f.shard, Addr: f.addr, Message: f.err.Error()}
		if _, ok := asRemote(f.err); !ok {
			transport = true
		}
	}
	if re, ok := asRemote(fails[0].err); ok && !transport {
		return &api.Error{Status: re.status, Code: re.code, Message: re.msg, Shards: details}
	}
	return &api.Error{
		Status:  http.StatusServiceUnavailable,
		Code:    api.CodeUnavailable,
		Message: fmt.Sprintf("%d of %d shards unavailable", len(fails), len(p.shardsNow())),
		Shards:  details,
	}
}

// shardError is the error of a failed single-shard exchange: remote
// verdicts pass through with their status and code; transport failures
// become 503 unavailable naming the shard.
func shardError(c *shardClient, err error) error {
	if re, ok := asRemote(err); ok {
		return &api.Error{Status: re.status, Code: re.code, Message: re.msg}
	}
	return &api.Error{
		Status:  http.StatusServiceUnavailable,
		Code:    api.CodeUnavailable,
		Message: err.Error(),
		Shards:  []api.ShardError{{Shard: c.shard, Addr: c.addr, Message: err.Error()}},
	}
}

// --- Global dimensions -------------------------------------------------------

// Dims returns the global (n, m), refreshing the cache from the shards'
// /v1/info when stale. The cache invalidates on topology reload and on
// writes through the proxy; rows appended behind the proxy's back surface
// on the next reload or restart.
func (p *Proxy) Dims(ctx context.Context) (int, int, error) {
	p.mu.RLock()
	d, topo, shards := p.dims, p.topo, p.shards
	p.mu.RUnlock()
	if d.valid {
		return d.n, d.m, nil
	}
	infos, err := p.fetchInfos(ctx, shards)
	if err != nil {
		return 0, 0, err
	}
	n, m, err := composeDims(topo, infos)
	if err != nil {
		return 0, 0, p.scatterError([]shardFailure{{shard: -1, err: err}})
	}
	p.mu.Lock()
	if p.topo == topo { // don't cache across a concurrent reload
		p.dims = dims{n: n, m: m, valid: true}
	}
	p.mu.Unlock()
	return n, m, nil
}

// fetchInfos gathers every shard's /v1/info concurrently.
func (p *Proxy) fetchInfos(ctx context.Context, shards []*shardClient) ([]api.InfoResponse, error) {
	infos := make([]api.InfoResponse, len(shards))
	fails := scatter(shards, allShards(shards), func(c *shardClient) error {
		return c.exchange(ctx, http.MethodGet, "/v1/info", nil, &infos[c.shard], true)
	})
	if len(fails) > 0 {
		return nil, p.scatterError(fails)
	}
	return infos, nil
}

// composeDims derives the global shape from per-shard infos, checking
// that the shards actually hold what the topology says they hold: a
// closed range must match its node's row count exactly, column counts
// must agree everywhere. A mismatch means the topology file and the data
// disagree — misrouting territory — so it is an error, not a warning.
func composeDims(topo *Topology, infos []api.InfoResponse) (n, m int, err error) {
	m = infos[0].Cols
	for s, info := range infos {
		sh := topo.Shards[s]
		if info.Cols != m {
			return 0, 0, fmt.Errorf("cluster: shard %d has %d cols, shard 0 has %d", s, info.Cols, m)
		}
		want := sh.Hi - sh.Lo
		if sh.Hi == -1 {
			n = sh.Lo + info.Rows
			continue
		}
		if info.Rows != want {
			return 0, 0, fmt.Errorf("cluster: shard %d holds %d rows, topology assigns [%d, %d)", s, info.Rows, sh.Lo, sh.Hi)
		}
		n = sh.Hi
	}
	return n, m, nil
}

// markDimsStale invalidates the cached global dimensions (rows were
// appended through the proxy).
func (p *Proxy) markDimsStale() {
	p.mu.Lock()
	p.dims.valid = false
	p.mu.Unlock()
}
