package query

// The names below are what remains of the query-plan cache, kept only
// because the benchmark module still calls them. Each is a no-op; nothing
// else may use them (cmd/seqserver's shim guard test enforces it).

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
