package telemetry

// Latency SLOs. A registry can carry one latency objective — "this fraction
// of requests answers within this many milliseconds" — and every endpoint's
// attainment and burn rate are then derived from the same histograms the
// metrics endpoints already expose, so the SLO view can never disagree with
// the latency view.

// SLOEndpoint is one endpoint's standing against the registry's objective.
type SLOEndpoint struct {
	Endpoint string `json:"endpoint"`
	Count    int64  `json:"count"`
	// Attainment is the fraction of observed requests at or under the
	// objective (1 when the endpoint has no traffic — an idle endpoint is
	// not out of SLO).
	Attainment float64 `json:"attainment"`
	// BurnRate is (1-attainment)/(1-target): 1.0 means the error budget is
	// being consumed exactly at the sustainable rate, above 1 it runs out
	// early, 0 means no budget is burning.
	BurnRate float64 `json:"burn_rate"`
}

// SLOReport is the registry-wide SLO view: the shared objective plus each
// endpoint's attainment, sorted by endpoint name.
type SLOReport struct {
	ObjectiveMs float64       `json:"objective_ms"`
	Target      float64       `json:"target"`
	Endpoints   []SLOEndpoint `json:"endpoints"`
}

// maxSLOTarget keeps the burn-rate denominator finite: a target of 100% has
// no error budget, so it is clamped just below.
const maxSLOTarget = 0.9999

// SetSLO configures the registry's latency objective: target (a fraction,
// e.g. 0.99) of each endpoint's requests should answer within objectiveMs.
// Snapshots taken after the call carry an SLOReport; objectiveMs <= 0
// removes the objective.
func (r *Registry) SetSLO(objectiveMs, target float64) {
	if target > maxSLOTarget {
		target = maxSLOTarget
	}
	r.mu.Lock()
	r.sloObjectiveMs, r.sloTarget = objectiveMs, target
	r.mu.Unlock()
}

// FractionBelow estimates the fraction of observations at or under ms,
// interpolating linearly inside the containing bucket (the same estimate the
// quantiles use, inverted). An empty histogram reports 1.
func (h HistogramSnapshot) FractionBelow(ms float64) float64 {
	if h.Count == 0 {
		return 1
	}
	var below float64
	for _, b := range h.Buckets {
		// Bucket bounds are 1µs·2^i, so each bucket's lower bound is half
		// its upper bound — except the first (1µs), which starts at 0.
		lo := 0.0
		if b.LeMs > float64(bucketBound(0))/1e6 {
			lo = b.LeMs / 2
		}
		switch {
		case ms >= b.LeMs:
			below += float64(b.Count)
		case ms <= lo:
			// none of this bucket
		default:
			below += float64(b.Count) * (ms - lo) / (b.LeMs - lo)
		}
	}
	return below / float64(h.Count)
}

// sloReport derives the report from already-snapshotted endpoints.
func sloReport(objectiveMs, target float64, eps map[string]EndpointSnapshot) *SLOReport {
	if objectiveMs <= 0 {
		return nil
	}
	rep := &SLOReport{ObjectiveMs: objectiveMs, Target: target}
	for _, name := range sortedKeys(eps) {
		h := eps[name].Latency
		att := h.FractionBelow(objectiveMs)
		rep.Endpoints = append(rep.Endpoints, SLOEndpoint{
			Endpoint:   name,
			Count:      h.Count,
			Attainment: att,
			BurnRate:   (1 - att) / (1 - target),
		})
	}
	return rep
}
