package query

// The names below are kept only because the benchmark module still calls
// them; nothing else may use them (cmd/seqserver's shim guard test
// enforces it). The query-plan cache's are no-ops.

// PlanCache is the former query-plan cache.
//
// Deprecated: there is no plan cache; every evaluation builds its plan in
// its pooled state. A *PlanCache is always nil.
type PlanCache struct{}

// PlanCacheStats is what PlanCache.Stats reports: always zeros.
//
// Deprecated: there is no plan cache.
type PlanCacheStats struct {
	Hits, Misses int64
}

// NewPlanCache returns nil.
//
// Deprecated: there is no plan cache.
func NewPlanCache(capacity int) *PlanCache { return nil }

// Stats returns zeros.
//
// Deprecated: there is no plan cache.
func (*PlanCache) Stats() PlanCacheStats { return PlanCacheStats{} }

// SplitSelection partitions sel across contiguous shard row ranges,
// translating each row to its shard-local index (global − Lo). Row order
// — and therefore multiset duplicate weighting — is preserved within each
// shard. Columns are not sharded: every non-empty fragment carries the
// full column list (aliasing sel.Cols). A row covered by no range is an
// out-of-range error; shards with no selected rows get an empty fragment.
//
// Deprecated: the proxy splits a selection's runs (IndexSpec.Split) and
// never lists its rows; this lists Split's pieces.
func SplitSelection(sel Selection, ranges []RowRange) ([]Selection, error) {
	specs, err := SpecOf(sel.Rows).Split(ranges)
	if err != nil {
		return nil, err
	}
	out := make([]Selection, len(ranges))
	for s, sp := range specs {
		if sp.Len() > 0 {
			out[s] = Selection{Rows: sp.Indices(), Cols: sel.Cols}
		}
	}
	return out, nil
}
