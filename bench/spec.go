package main

import "fmt"

// Workload names, in the order BENCHMARK.json declares them.
const (
	wlPointRead     = "point_read"
	wlAggAdhoc      = "agg_adhoc"
	wlProxyMixed    = "proxy_mixed"
	wlIngestMixed   = "ingest_mixed"
	wlCompressBatch = "compress_batch"
)

var workloadNames = []string{wlPointRead, wlAggAdhoc, wlProxyMixed, wlIngestMixed, wlCompressBatch}

// Server flag values the rig passes to internal/server and internal/ingest:
// the seqserver binary's defaults, plus the two ingest knobs the
// ingest_mixed workload sets on its command line.
const (
	budget            = 0.10 // the paper's 10 % space budget
	serverCacheRows   = 4096 // seqserver -cache-rows default
	serverQueryWorker = 1    // seqserver -query-workers default
	ingestCompactRows = 64   // seqserver -compact-after 64
	ingestRecompress  = -1.0 // seqserver -recompress-growth -1, see README
	bulkRows          = 8    // rows per /v1/bulk request
	batchQueries      = 4    // queries per /v1/aggregate/batch request
	zipfS             = 1.1  // skew of every Zipf draw
	checkEvery        = 64   // every 64th cell/row is compared bit for bit
)

// sizes holds every scale knob, so the smoke test can run the same code
// on a dataset that compresses in milliseconds.
type sizes struct {
	ServeN    int // rows behind point_read, agg_adhoc and proxy_mixed
	IngestN   int // cold rows ingest_mixed starts from
	CompressN int // rows of the matrix compress_batch compresses per op
	ProbeN    int // rows of the ladder's compress-side probe matrix
	Cols      int // columns (days) of every dataset
	AggPool   int // distinct aggregate selections (2× the plan cache)
	BatchPool int // distinct batch bodies
	RowPool   int // distinct pre-rendered rows /v1/bulk draws from
	Ops       int // pre-generated ops per client; the stream wraps after that
	SetupReps int // most set-ups timed per run; setup_s is their median
	LadderOps int // ops the traced run replays through the ladder
	MicroIter int // iterations of each micro rung
}

// fullSizes is the frozen benchmark scale. ServeN is 5× the default row
// cache, so uniform keys mostly miss it while a Zipf hot set fits.
var fullSizes = sizes{
	ServeN: 20000, IngestN: 4000, CompressN: 2048, ProbeN: 2048, Cols: 366,
	AggPool: 512, BatchPool: 128, RowPool: 512, Ops: 1 << 17,
	SetupReps: 15, LadderOps: 2000, MicroIter: 2000,
}

// smokeSizes is what `go test` runs: every code path, no meaningful timing.
var smokeSizes = sizes{
	ServeN: 300, IngestN: 300, CompressN: 300, ProbeN: 300, Cols: 40,
	AggPool: 16, BatchPool: 8, RowPool: 32, Ops: 1 << 10,
	SetupReps: 1, LadderOps: 40, MicroIter: 20,
}

// topology says which servers a workload's rig starts.
type topology int

const (
	topoNone     topology = iota // compress_batch: no server
	topoNode                     // one read-only store node
	topoProxy                    // seqproxy over two row shards
	topoWritable                 // one writable node with a WAL
)

type workload struct {
	name string
	topo topology
	rows func(sizes) int
	// primary is the op kind whose latency primary_p50_ms reports, slow the
	// one primary_p90_ms reports. They differ only under ingest, where an
	// operator watches two things: what a read costs beside the writes, and
	// how long a write can take (the bulk that waited for a compaction).
	// The bulk median cannot gate anything: it carries an fsync on a shared
	// disk, and ten runs of the same code spread up to 24 %.
	primary, slow opKind
}

var workloads = map[string]workload{
	wlPointRead:     {wlPointRead, topoNode, func(s sizes) int { return s.ServeN }, opCell, opCell},
	wlAggAdhoc:      {wlAggAdhoc, topoNode, func(s sizes) int { return s.ServeN }, opAgg, opAgg},
	wlProxyMixed:    {wlProxyMixed, topoProxy, func(s sizes) int { return s.ServeN }, opCell, opCell},
	wlIngestMixed:   {wlIngestMixed, topoWritable, func(s sizes) int { return s.IngestN }, opCell, opBulk},
	wlCompressBatch: {wlCompressBatch, topoNone, func(s sizes) int { return s.CompressN }, opCompress, opCompress},
}

func lookupWorkload(name string) (workload, error) {
	wl, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return wl, nil
}
