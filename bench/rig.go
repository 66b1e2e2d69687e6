package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"seqstore/internal/cluster"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/metrics"
	"seqstore/internal/query"
	"seqstore/internal/server"
	"seqstore/internal/store"
)

// quietLogger is what the binaries log with by default (JSON, level info)
// pointed at nothing: per-request lines are Debug and stay filtered, so the
// handlers pay exactly the Enabled check production pays.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// phoneConfig is the repository's standard phone-call dataset, n customers
// × cols days. The data is a fixture (DefaultPhoneConfig's seed), not a
// function of --seed: reconstruction error and k_opt swing by a factor of
// three across data seeds, which would drown every other signal. --seed
// drives what the clients ask for.
func phoneConfig(n, cols int) dataset.PhoneConfig {
	cfg := dataset.DefaultPhoneConfig(n)
	cfg.M = cols
	return cfg
}

func phoneMatrix(n, cols int) *linalg.Matrix {
	return dataset.GeneratePhone(phoneConfig(n, cols))
}

// listener is one in-process HTTP server on a loopback TCP port.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	// Timeouts as cmd/seqproxy sets them; node listeners below use
	// server.Server, which applies seqserver's own.
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      cluster.DefaultTimeout + 30*time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ls := &listener{url: "http://" + l.Addr().String(), srv: srv, done: make(chan error, 1)}
	go func() { ls.done <- srv.Serve(l) }()
	return ls, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// node is one seqserver: a store opened from its own .sqz file behind
// server.Server on a loopback listener.
type node struct {
	url     string
	handler *server.Handler
	srv     *server.Server
	done    chan error
}

func startNode(st store.Store, labels *store.Labels) (*node, error) {
	srv := server.New(st, labels, server.Config{
		Addr:         "127.0.0.1:0",
		CacheRows:    serverCacheRows,
		QueryWorkers: serverQueryWorker,
		Logger:       quietLogger(),
	})
	l, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + l.Addr().String(), handler: srv.Handler(), srv: srv, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(l) }()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A drain that times out leaves Serve running on a dead benchmark;
	// the process is about to exit, so only the wait below matters.
	_ = n.srv.Shutdown(ctx)
	<-n.done
}

// stageTimes are the set-up stages, timed one by one so the traced run can
// report them per layer.
type stageTimes struct {
	Datagen, Write, Compress, Save, Open, Listen time.Duration
}

func (s stageTimes) total() time.Duration {
	return s.Datagen + s.Write + s.Compress + s.Save + s.Open + s.Listen
}

// rig is one workload's running system plus the references the
// correctness checks compare against.
type rig struct {
	wl  workload
	dir string
	x   *linalg.Matrix // raw data, kept for rmspe and the bulk row pool
	ref *core.Store    // the unsharded store, read directly by the checks
	// shards and ranges are the proxy topology's row partitions; direct is
	// the traced run's extra node over the unsharded store, the rung the
	// proxy hop is measured against.
	shards []*core.Store
	ranges []query.RowRange
	direct *node
	nodes  []*node
	front  *listener // the proxy, when the topology has one
	proxy  *cluster.Proxy
	tier   *ingest.Tiered
	url    string // where clients send
	stage  stageTimes

	smxPath, sqzPath, walPath string
}

// compressFile is the seqcompress step: open the .smx, run the out-of-core
// SVDD compressor with default options (gram, all CPUs), close the input.
func compressFile(smx string) (*core.Store, error) {
	f, err := matio.Open(smx)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Compress(f, core.Options{Budget: budget})
}

// openStore is the seqserver start-up step; every workload serves SVDD.
func openStore(path string) (*core.Store, error) {
	st, _, err := server.Open(path)
	if err != nil {
		return nil, err
	}
	cs, ok := st.(*core.Store)
	if !ok {
		return nil, fmt.Errorf("%s: opened a %v store, want svdd", path, st.Method())
	}
	return cs, nil
}

// newRig performs the whole set-up the way an operator would — seqgen,
// seqcompress, seqserver (and seqproxy) — in-process, with every file under
// a fresh directory inside root. On error everything already started is
// torn down.
func newRig(wl workload, sz sizes, root string) (r *rig, err error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "rig-")
	if err != nil {
		return nil, err
	}
	r = &rig{wl: wl, dir: dir,
		smxPath: filepath.Join(dir, "data.smx"),
		sqzPath: filepath.Join(dir, "data.sqz"),
		walPath: filepath.Join(dir, "data.sqz.wal"),
	}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()

	t := time.Now()
	r.x = phoneMatrix(wl.rows(sz), sz.Cols)
	r.stage.Datagen = time.Since(t)

	t = time.Now()
	if err = matio.WriteMatrix(r.smxPath, r.x); err != nil {
		return
	}
	r.stage.Write = time.Since(t)
	if wl.topo == topoNone {
		return // compress_batch compresses inside its measured window
	}

	t = time.Now()
	st, err := compressFile(r.smxPath)
	if err != nil {
		return
	}
	r.stage.Compress = time.Since(t)

	t = time.Now()
	if err = store.SaveLabeled(r.sqzPath, st, nil); err != nil {
		return
	}
	var shardPaths []string
	var topo cluster.Topology
	if wl.topo == topoProxy {
		n, _ := st.Dims()
		bounds := []int{0, n / 2, n}
		for s := 0; s+1 < len(bounds); s++ {
			var slice *core.Store
			if slice, err = st.SliceRows(bounds[s], bounds[s+1]); err != nil {
				return
			}
			p := filepath.Join(dir, fmt.Sprintf("shard%d.sqz", s))
			if err = store.SaveLabeled(p, slice, nil); err != nil {
				return
			}
			shardPaths = append(shardPaths, p)
			topo.Shards = append(topo.Shards, cluster.Shard{Lo: bounds[s], Hi: bounds[s+1]})
		}
		topo.Shards[len(topo.Shards)-1].Hi = -1
	}
	r.stage.Save = time.Since(t)

	t = time.Now()
	if r.ref, err = openStore(r.sqzPath); err != nil {
		return
	}
	var served []store.Store
	switch wl.topo {
	case topoNode:
		served = []store.Store{r.ref}
	case topoProxy:
		for _, p := range shardPaths {
			var s *core.Store
			if s, err = openStore(p); err != nil {
				return
			}
			served = append(served, s)
			r.shards = append(r.shards, s)
		}
		for _, sh := range topo.Shards {
			r.ranges = append(r.ranges, query.RowRange{Lo: sh.Lo, Hi: sh.Hi})
		}
	case topoWritable:
		// The tier folds into the store it is handed, so the reference
		// the checks read stays a separate copy.
		var cold *core.Store
		if cold, err = openStore(r.sqzPath); err != nil {
			return
		}
		r.tier, err = ingest.Open(cold, nil, r.walPath, ingest.Options{
			CompactAfter:     ingestCompactRows,
			RecompressGrowth: ingestRecompress,
			PersistPath:      r.sqzPath,
			Logger:           quietLogger(),
		})
		if err != nil {
			return
		}
		served = []store.Store{r.tier}
	}
	r.stage.Open = time.Since(t)

	t = time.Now()
	for _, s := range served {
		var n *node
		if n, err = startNode(s, nil); err != nil {
			return
		}
		r.nodes = append(r.nodes, n)
	}
	r.url = r.nodes[0].url
	if wl.topo == topoProxy {
		for s := range topo.Shards {
			topo.Shards[s].Addr = r.nodes[s].url
		}
		topoPath := filepath.Join(dir, "cluster.json")
		var raw []byte
		if raw, err = json.Marshal(topo); err != nil {
			return
		}
		if err = os.WriteFile(topoPath, raw, 0o644); err != nil {
			return
		}
		if r.proxy, err = cluster.New(topoPath, cluster.Options{Logger: quietLogger()}); err != nil {
			return
		}
		if r.front, err = listen(r.proxy); err != nil {
			return
		}
		r.url = r.front.url
	}
	r.stage.Listen = time.Since(t)
	return r, nil
}

// served is the store behind the single node: the live tier under ingest,
// the unsharded store otherwise (the proxy's shards partition the same one).
func (r *rig) served() store.Store {
	if r.tier != nil {
		return r.tier
	}
	return r.ref
}

// directNode returns a store node over the unsharded store: the workload's
// own node, or for the proxy topology one started on first use.
func (r *rig) directNode() (*node, error) {
	if r.wl.topo != topoProxy {
		return r.nodes[0], nil
	}
	if r.direct == nil {
		n, err := startNode(r.ref, nil)
		if err != nil {
			return nil, err
		}
		r.direct = n
	}
	return r.direct, nil
}

// close stops every server, closes the tier and removes the rig's files.
// It is safe on a partly built rig.
func (r *rig) close() {
	if r.front != nil {
		r.front.close()
		r.front = nil
	}
	if r.direct != nil {
		r.direct.close()
		r.direct = nil
	}
	for _, n := range r.nodes {
		n.close()
	}
	r.nodes = nil
	if r.tier != nil {
		r.tier.Close()
		r.tier = nil
	}
	os.RemoveAll(r.dir)
}

// quality reports the paper's Figure 6 axes for a store against the data
// it was compressed from: RMSPE in percent and the space ratio.
func quality(x *linalg.Matrix, st *core.Store) (rmspePct, spaceRatio float64, err error) {
	var acc metrics.Accumulator
	var row []float64
	for i := 0; i < x.Rows(); i++ {
		if row, err = st.Row(i, row); err != nil {
			return 0, 0, err
		}
		acc.AddRow(i, x.Row(i), row)
	}
	return 100 * acc.RMSPE(), store.SpaceRatio(st), nil
}
