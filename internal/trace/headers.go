package trace

import (
	"net/http"
	"strconv"
)

// Cost-ledger response headers. Every /v1 response carries the request's
// full ledger in these headers, so a client — and in particular the
// distributed proxy, which folds each shard's headers into its own ledger —
// can account for work without parsing the body. The header set is the
// wire form of LedgerSnapshot.
const (
	HeaderRequestID    = "X-Request-Id"
	HeaderDiskAccesses = "X-Cost-Disk-Accesses"
	HeaderRowsRead     = "X-Cost-Rows-Read"
	HeaderPagesTouched = "X-Cost-Pages-Touched"
	HeaderDeltasProbed = "X-Cost-Deltas-Probed"
	HeaderWorkerChunks = "X-Cost-Worker-Chunks"
	HeaderRowsWritten  = "X-Cost-Rows-Written"
)

// costHeaderNames and costCounts pair each header name with its
// LedgerSnapshot field by position, in one place, so Encode and Parse can
// never drift apart (a count list of another length does not compile). Two
// arrays rather than one of (name, pointer) pairs: escape analysis treats an
// array as one location, so a name flowing into the header map would drag
// the pointers, and with them the caller's snapshot, onto the heap.
var costHeaderNames = [...]string{
	HeaderDiskAccesses,
	HeaderRowsRead,
	HeaderPagesTouched,
	HeaderDeltasProbed,
	HeaderWorkerChunks,
	HeaderRowsWritten,
}

func (s *LedgerSnapshot) costCounts() [len(costHeaderNames)]*int64 {
	return [...]*int64{
		&s.DiskAccesses,
		&s.RowsRead,
		&s.PagesTouched,
		&s.DeltasProbed,
		&s.WorkerChunks,
		&s.RowsWritten,
	}
}

// smallCounts are the header values of the counts a request usually
// charges — a point read's are all 0s and 1s — formatted once.
var smallCounts = func() []string {
	s := make([]string, 256)
	for n := range s {
		s[n] = strconv.Itoa(n)
	}
	return s
}()

// EncodeCostHeaders writes the snapshot into h. Every header is always set
// (zeros included), so a reader can distinguish "cost was zero" from "the
// peer predates cost headers". The names are canonical and small counts are
// preformatted, so the headers are assigned, not built: a shared value is a
// one-element slice with no spare capacity, which an Add cannot write into.
func EncodeCostHeaders(h http.Header, snap LedgerSnapshot) {
	for k, count := range snap.costCounts() {
		if n := *count; n >= 0 && n < int64(len(smallCounts)) {
			h[costHeaderNames[k]] = smallCounts[n : n+1 : n+1]
		} else {
			h[costHeaderNames[k]] = []string{strconv.FormatInt(n, 10)}
		}
	}
}

// ParseCostHeaders reads a snapshot back out of h. Missing or malformed
// headers parse as zero — a proxy summing shard costs degrades gracefully
// when a shard under-reports rather than failing the request.
func ParseCostHeaders(h http.Header) LedgerSnapshot {
	var snap LedgerSnapshot
	for k, count := range snap.costCounts() {
		if v := h.Get(costHeaderNames[k]); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				*count = n
			}
		}
	}
	return snap
}

// AddSnapshot folds a remote ledger snapshot into l — the proxy's gather
// step, making the front-door ledger the exact sum of the shard ledgers
// (plus the proxy's own charges). Nil-safe like the other Ledger methods.
func (l *Ledger) AddSnapshot(s LedgerSnapshot) {
	if l == nil {
		return
	}
	l.rowsRead.Add(s.RowsRead)
	l.pagesTouched.Add(s.PagesTouched)
	l.deltasProbed.Add(s.DeltasProbed)
	l.workerChunks.Add(s.WorkerChunks)
	l.diskAccesses.Add(s.DiskAccesses)
	l.rowsWritten.Add(s.RowsWritten)
}
