// Command seqserver serves the /v1 query API over HTTP/JSON — the
// decision-support front end the paper's warehouse setting implies:
// analysts issue cell and aggregate queries against the compressed data
// without ever reconstituting the original matrix. One binary, two
// backends behind the same HTTP layer (internal/api):
//
//	seqserver -store phone2000.sqz -addr :8080
//	seqserver -topology cluster.json -addr :8090
//
// With -store it is a store node answering from one compressed .sqz file.
// With -topology it is the distributed tier's stateless front door: it
// owns no data and routes each request over N store nodes that each own a
// contiguous row range of the matrix, as described by a JSON file:
//
//	{"shards": [
//	  {"addr": "http://10.0.0.1:8080", "lo": 0,    "hi": 4096},
//	  {"addr": "http://10.0.0.2:8080", "lo": 4096, "hi": -1}
//	]}
//
// Ranges must tile [0, n) contiguously; the last range may be open-ended
// (hi = -1), in which case it absorbs /v1/bulk appends. The file is
// re-read on SIGHUP, swapping the shard set without dropping in-flight
// requests; a broken file keeps the current shard set serving.
//
// Endpoints (GET unless marked; other verbs get 405 with an Allow header):
//
//	/v1/info                      store metadata; behind -topology, global
//	                              dimensions composed from the shards plus
//	                              the shard map
//	/v1/cell?i=42&j=180           one reconstructed cell: the /v1/cells
//	                              batch of one (behind -topology, one
//	                              exchange with the shard owning row i)
//	/v1/cell?row=GHI+Inc.&col=We  the same, by axis labels (store node only:
//	                              the label maps live with the data)
//	/v1/cells?at=42:180,42:181    batch cell lookups (fanned out by shard,
//	                              one request per touched shard,
//	                              reassembled in request order)
//	/v1/row?i=42                  one reconstructed sequence: the /v1/rows
//	                              batch of one
//	/v1/rows?i=0:8,17             batch row reconstruction
//	/v1/aggregate                 POST {"f":"avg","rows":"0:1000",
//	                              "cols":"180:187"}: aggregate over a
//	                              row/column selection; rows/cols accept
//	                              "3,17,0:10" specs and default to "all";
//	                              each request builds its own plan (V
//	                              panel + row-run schedule). "explain":
//	                              true adds the chosen plan, row-run
//	                              schedule and cost estimates next to the
//	                              executed ledger (no extra disk accesses;
//	                              exact on a cold store). It is the
//	                              /v1/aggregate/batch of one, answered with
//	                              the lone body and error envelope
//	/v1/aggregate/batch           POST: N aggregates in one request, each
//	                              answered and charged as it is alone, so
//	                              the batch costs its items' sum. Behind
//	                              -topology each selection splits by shard
//	                              row range, each touched shard evaluates
//	                              its fragments of the whole batch into
//	                              exact mergeable partials, and each merged
//	                              value is bit-identical to a single node
//	                              evaluating the unsplit selection;
//	                              body {"queries":[{"f":"sum","rows":"0:64",
//	                              "cols":"0:24"},...]}, per-item status in
//	                              the response like /v1/bulk; "explain"
//	                              per query or batch-wide
//	/v1/metrics                   per-endpoint latency histograms and, per
//	                              backend, disk-access counters and
//	                              corruption count, or
//	                              per-shard gauges (inflight, errors,
//	                              hedges, p99); ?format=prom renders the
//	                              same snapshot as Prometheus text; behind
//	                              -topology ?scope=cluster scrapes and
//	                              merges every store node's registry, each
//	                              sample labeled shard="N"
//	/v1/debug/traces              ring of recently completed request traces
//	                              with per-request cost ledgers; behind
//	                              -topology the full scatter/gather tree,
//	                              per-attempt hedge outcomes and per-shard
//	                              ledger splits under one trace id
//	/v1/healthz                   liveness probe (per-shard behind
//	                              -topology); with -slo-objective, the
//	                              per-endpoint attainment and burn-rate
//	                              report
//
// With -writable the store becomes a live ingestion tier and the write
// endpoint opens up (behind -topology it forwards to the open-ended shard
// and re-maps the assigned rows to global indices):
//
//	/v1/bulk                      POST NDJSON bulk append, one document per
//	                              line: {"label":"cust-9911","values":[...]}
//	                              with optional {"create":{}} action lines.
//	                              The whole request is one WAL fsync; a 201
//	                              item is durable across any crash. Appended
//	                              rows serve immediately (exact, zero disk
//	                              accesses) and are folded into the
//	                              compressed segment by a background
//	                              compactor, which atomically rewrites the
//	                              -store file and checkpoints the WAL.
//
// Every response carries X-Request-Id (echoing a well-formed client value,
// or a fresh one) and the X-Cost-* ledger: X-Cost-Disk-Accesses is the
// number of U-row fetches the request cost under the paper's block model,
// and behind -topology it is the exact sum of the per-shard ledgers — the
// cost model survives the network hop. A W3C-style traceparent is adopted
// when valid and propagated on every shard call, so store-node spans join
// the front door's trace.
//
// Errors map onto the store's typed taxonomy: bad input and out-of-range
// indices are 400s, detected on-disk corruption is a 503 (the process
// keeps serving what it still can), a client gone mid-query logs as 499.
// A dead or stalled store node turns into a typed 503 with the failing
// shards named in the error detail, within -shard-timeout; idempotent
// point reads are retried against the same shard after -hedge-after.
//
// The serving layers live in internal/api (HTTP), internal/server (store
// node, listener, graceful shutdown) and internal/cluster (scatter/gather);
// this command only parses flags and wires up logging, signal handling and
// the optional pprof listener. SIGINT/SIGTERM drain in-flight requests
// before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seqstore/internal/cluster"
	"seqstore/internal/ingest"
	"seqstore/internal/server"
	"seqstore/internal/store"
)

// newLogger builds the process logger from the -log-format/-log-level
// flags. JSON goes to stdout (one object per line, machine-shippable);
// text is the human-readable development format.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "json", "":
		return slog.New(slog.NewJSONHandler(os.Stdout, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stdout, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want json|text)", format)
	}
}

// servePprof starts net/http/pprof on its own listener, registered on an
// explicit mux so the profiling surface never leaks onto the query API's
// address. Debug-only: bind it to localhost.
func servePprof(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("pprof listener failed", "addr", addr, "err", err)
		}
	}()
}

// writeHeadroom is how far the response write timeout must sit above the
// per-shard deadline behind -topology, so a slow shard yields a typed 503,
// not a severed connection.
const writeHeadroom = 30 * time.Second

func main() {
	fs := flag.NewFlagSet("seqserver", flag.ExitOnError)
	storePath := fs.String("store", "", "compressed .sqz store to serve (this or -topology is required)")
	topoPath := fs.String("topology", "",
		"JSON shard topology file: serve as the scatter/gather front door over its store nodes instead of a -store; re-read on SIGHUP")
	addr := fs.String("addr", ":8080", "listen address")
	queryWorkers := fs.Int("query-workers", 1,
		"goroutines per aggregate evaluation (0 = one per CPU)")
	shardTimeout := fs.Duration("shard-timeout", cluster.DefaultTimeout,
		"with -topology: per-shard request deadline; a silent shard is reported unavailable after this")
	hedgeAfter := fs.Duration("hedge-after", 0,
		"with -topology: hedge idempotent point reads against a slow shard after this delay (0 disables)")
	logFormat := fs.String("log-format", "json", "structured log format: json or text")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	slowQuery := fs.Duration("slow-query", 0,
		"log requests slower than this at Warn with their cost ledger, trace id and winning shards (0 disables)")
	traceBuffer := fs.Int("trace-buffer", 0,
		"request traces kept for /v1/debug/traces (0 = default)")
	sloObjective := fs.Duration("slo-objective", 0,
		"per-endpoint latency objective reported by /v1/metrics and /v1/healthz (0 disables)")
	sloTarget := fs.Float64("slo-target", 0.99,
		"fraction of requests that must meet -slo-objective")
	debugAddr := fs.String("debug-addr", "",
		"serve net/http/pprof on this separate address (empty disables)")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "request read timeout")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second,
		"response write timeout (with -topology, at least -shard-timeout + 30s)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "keep-alive idle timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second,
		"max time to drain in-flight requests on SIGINT/SIGTERM")
	writable := fs.Bool("writable", false,
		"serve the store as a live ingestion tier: enables POST /v1/bulk, a WAL-backed hot segment and background compaction into -store")
	walPath := fs.String("wal", "",
		"write-ahead log path for -writable (default: <store>.wal)")
	compactAfter := fs.Int("compact-after", 0,
		"hot rows that wake the background compactor (0 = default 256)")
	recompressGrowth := fs.Float64("recompress-growth", 0,
		"negative disables automatic recompression; otherwise the cold segment recompresses once its space ratio passes its budget by 2% (deprecated: the growth factor is gone)")
	fs.Parse(os.Args[1:])
	switch {
	case (*storePath == "") == (*topoPath == ""):
		fmt.Fprintln(os.Stderr, "seqserver: exactly one of -store and -topology is required")
		os.Exit(1)
	case *topoPath != "" && *writable:
		fmt.Fprintln(os.Stderr, "seqserver: -writable needs -store; behind -topology, appends go to the open-ended shard's own -writable node")
		os.Exit(1)
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqserver: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	cfg := server.Config{
		Addr:            *addr,
		QueryWorkers:    *queryWorkers,
		Logger:          logger,
		SlowQuery:       *slowQuery,
		TraceBuffer:     *traceBuffer,
		SLOObjective:    *sloObjective,
		SLOTarget:       *sloTarget,
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		IdleTimeout:     *idleTimeout,
		ShutdownTimeout: *shutdownTimeout,
	}
	var srv *server.Server
	var serving []any // the "serving" log line's mode-specific attributes
	if *topoPath != "" {
		proxy, err := cluster.New(*topoPath, cluster.Options{
			Timeout:      *shardTimeout,
			HedgeAfter:   *hedgeAfter,
			Logger:       logger,
			SlowQuery:    *slowQuery,
			TraceBuffer:  *traceBuffer,
			SLOObjective: *sloObjective,
			SLOTarget:    *sloTarget,
		})
		if err != nil {
			log.Fatalf("seqserver: %v", err)
		}
		reloadOnHUP(proxy, *topoPath, logger)
		cfg.WriteTimeout = max(cfg.WriteTimeout, *shardTimeout+writeHeadroom)
		srv = server.Wrap(proxy, cfg)
		serving = []any{"topology", *topoPath, "shard_timeout", *shardTimeout, "hedge_after", *hedgeAfter}
	} else {
		st, labels, err := server.Open(*storePath)
		if err != nil {
			log.Fatalf("seqserver: %v", err)
		}
		if *writable {
			wal := *walPath
			if wal == "" {
				wal = *storePath + ".wal"
			}
			// Compactions persist the folded cold segment back into the
			// -store file (atomic rename), so restarts replay only the
			// still-hot tail.
			ti, err := ingest.Open(st, labels, wal, ingest.Options{
				CompactAfter:     *compactAfter,
				RecompressGrowth: *recompressGrowth,
				PersistPath:      *storePath,
				Logger:           logger,
			})
			if err != nil {
				log.Fatalf("seqserver: %v", err)
			}
			defer ti.Close()
			st = ti
			logger.Info("ingestion tier enabled",
				"wal", wal, "hot_rows", ti.HotRows(), "compact_after", *compactAfter)
		}
		srv = server.New(st, labels, cfg)
		rows, cols := st.Dims()
		serving = []any{
			"method", st.Method().String(),
			"rows", rows, "cols", cols,
			"space_ratio", store.SpaceRatio(st),
		}
	}
	l, err := srv.Listen()
	if err != nil {
		log.Fatalf("seqserver: %v", err)
	}
	if *debugAddr != "" {
		servePprof(*debugAddr, logger)
	}
	logger.Info("serving", append([]any{"addr", l.Addr().String()}, serving...)...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, l); err != nil {
		log.Fatalf("seqserver: %v", err)
	}
	logger.Info("drained in-flight requests, exiting")
}

// reloadOnHUP hot-reloads the topology file on SIGHUP for the life of the
// process; a bad file logs and keeps the current shard set serving.
func reloadOnHUP(proxy *cluster.Proxy, path string, logger *slog.Logger) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := proxy.ReloadFile(); err != nil {
				logger.Error("topology reload failed; keeping current topology", "err", err)
				continue
			}
			logger.Info("topology reloaded", "file", path)
		}
	}()
}
