// Package cluster is the distributed tier: the scatter/gather api.Backend.
// Behind the same HTTP layer a store node uses (internal/api), it answers
// the typed /v1 contract by routing over N store nodes that each own a
// contiguous row range of the matrix — `seqserver -topology`.
//
// Point reads (/v1/cell, /v1/row, /v1/rows, /v1/cells) route by row-range
// lookup against a static topology file (hot-reloadable on SIGHUP).
// Aggregates scatter the selection — split by shard row ranges with
// query.IndexSpec.Split — evaluate remotely in partial (mergeable) form,
// and gather with query.MergePartials in deterministic shard order. The
// partials carry exact accumulators, so the gathered result is
// bit-identical to evaluating the whole selection on one node, for every
// aggregate and any shard count. The proxy holds no data: shards own their
// rows, the proxy owns only the map.
//
// Shard exchanges ride persistent framed channels to the store nodes
// (channel.go, api.ChannelPath), not HTTP requests. Each shard response's
// X-Cost-* fields are folded into the proxy request's ledger, so the front
// door's X-Cost-Disk-Accesses is the exact sum of the per-shard ledgers
// plus nothing — the paper's cost model survives the hop.
package cluster

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"strings"

	"seqstore/internal/query"
)

// Shard is one store node's slot in the topology: its base URL and the
// contiguous global row range [Lo, Hi) it owns. Hi = -1 marks the open
// range that absorbs appended rows; only the last shard may be open.
type Shard struct {
	Addr string `json:"addr"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"` // -1: open-ended
}

// Topology is the static shard map, loaded from a JSON file:
//
//	{"shards": [
//	  {"addr": "http://10.0.0.1:8080", "lo": 0,    "hi": 4096},
//	  {"addr": "http://10.0.0.2:8080", "lo": 4096, "hi": -1}
//	]}
type Topology struct {
	Shards []Shard `json:"shards"`
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (*Topology, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read topology: %w", err)
	}
	var t Topology
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("cluster: parse topology %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: topology %s: %w", path, err)
	}
	return &t, nil
}

// Validate checks the structural invariants the router depends on: at
// least one shard, every addr an http://host[:port] base URL with nothing
// after it, ranges contiguous from row 0 in file order with no gaps or
// overlaps, every range non-empty, and an open-ended range only in last
// position.
func (t *Topology) Validate() error {
	if len(t.Shards) == 0 {
		return fmt.Errorf("no shards")
	}
	next := 0
	for s, sh := range t.Shards {
		if sh.Addr == "" {
			return fmt.Errorf("shard %d: empty addr", s)
		}
		if u, err := url.Parse(sh.Addr); err != nil || u.Scheme != "http" || u.Hostname() == "" ||
			u.User != nil || u.Path != "" || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
			return fmt.Errorf("shard %d: addr %q is not http://host:port", s, sh.Addr)
		}
		if sh.Lo != next {
			return fmt.Errorf("shard %d: range starts at %d, want %d (contiguous from 0)", s, sh.Lo, next)
		}
		if sh.Hi == -1 {
			if s != len(t.Shards)-1 {
				return fmt.Errorf("shard %d: open-ended range must be last", s)
			}
			return nil
		}
		if sh.Hi <= sh.Lo {
			return fmt.Errorf("shard %d: empty range [%d, %d)", s, sh.Lo, sh.Hi)
		}
		next = sh.Hi
	}
	return nil
}

// Locate returns the index of the shard owning global row i, or -1 when no
// range covers it (i negative, or beyond a closed last range).
func (t *Topology) Locate(i int) int {
	if i < 0 {
		return -1
	}
	for s, sh := range t.Shards {
		if i >= sh.Lo && (sh.Hi == -1 || i < sh.Hi) {
			return s
		}
	}
	return -1
}

// Ranges returns the shard ranges in query.IndexSpec.Split's form.
func (t *Topology) Ranges() []query.RowRange {
	out := make([]query.RowRange, len(t.Shards))
	for s, sh := range t.Shards {
		out[s] = query.RowRange{Lo: sh.Lo, Hi: sh.Hi}
	}
	return out
}

// OpenShard returns the index of the open-ended shard, or -1 when every
// range is closed (a topology that cannot absorb writes).
func (t *Topology) OpenShard() int {
	last := len(t.Shards) - 1
	if last >= 0 && t.Shards[last].Hi == -1 {
		return last
	}
	return -1
}
