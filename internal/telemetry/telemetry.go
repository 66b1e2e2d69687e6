// Package telemetry provides the serving layer's observability primitives —
// request/error counters and latency histograms — using only the standard
// library. Everything is safe for concurrent use: counters and histogram
// buckets are atomics, so the hot path never takes a lock.
//
// A Registry groups per-endpoint metrics plus named collection-time gauges
// and renders a point-in-time Snapshot that marshals directly to the
// /v1/metrics JSON schema documented in README.md.
package telemetry

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// numBuckets covers 1µs·2^i for i in [0, numBuckets): ~1µs to ~2199s,
// which brackets any plausible HTTP request latency.
const numBuckets = 32

// bucketBound returns the inclusive upper bound of bucket i in nanoseconds.
func bucketBound(i int) int64 { return int64(time.Microsecond) << uint(i) }

// Histogram is a fixed-bucket exponential latency histogram. Buckets have
// upper bounds 1µs·2^i, so two observations land in the same bucket only
// when they are within 2× of each other — ample resolution for latency
// percentiles while keeping the histogram a small flat array of atomics.
// The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; 0 means "unset" (no observations yet)
	max    atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := sort.Search(numBuckets-1, func(b int) bool { return ns <= bucketBound(b) })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if cur != 0 && cur <= ns {
			break
		}
		// Store ns+1 so a genuine 0ns observation is distinguishable from
		// the unset sentinel; Snapshot subtracts the 1 back off.
		if h.min.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= ns {
			break
		}
		if h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	LeMs  float64 `json:"le_ms"` // inclusive upper bound, milliseconds
	Count int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a Histogram. All times are
// milliseconds. Quantiles are estimated by linear interpolation inside the
// containing bucket (exact to within the bucket's 2× resolution).
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	MeanMs  float64  `json:"mean_ms"`
	MinMs   float64  `json:"min_ms"`
	MaxMs   float64  `json:"max_ms"`
	P50Ms   float64  `json:"p50_ms"`
	P90Ms   float64  `json:"p90_ms"`
	P99Ms   float64  `json:"p99_ms"`
	P999Ms  float64  `json:"p999_ms"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram. Concurrent Observe calls may or may not
// be included; totals are internally consistent to within in-flight updates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	if s.Count == 0 {
		return s
	}
	sum := h.sum.Load()
	s.MeanMs = float64(sum) / float64(s.Count) / 1e6
	if mn := h.min.Load(); mn > 0 {
		s.MinMs = float64(mn-1) / 1e6
	}
	s.MaxMs = float64(h.max.Load()) / 1e6
	counts := make([]int64, numBuckets)
	var total int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
		if counts[i] > 0 {
			s.Buckets = append(s.Buckets, Bucket{
				LeMs:  float64(bucketBound(i)) / 1e6,
				Count: counts[i],
			})
		}
	}
	// Interpolated quantiles can land outside the observed [min, max] —
	// most visibly when every observation is 0ns, where interpolation in
	// bucket 0 would report p99 ≈ 0.0005ms above a max of 0. Clamp every
	// quantile into the observed range (max included even when it is 0:
	// count > 0 here, so MaxMs is a real observation, not a sentinel).
	s.P50Ms = clamp(quantile(counts, total, 0.50), s.MinMs, s.MaxMs)
	s.P90Ms = clamp(quantile(counts, total, 0.90), s.MinMs, s.MaxMs)
	s.P99Ms = clamp(quantile(counts, total, 0.99), s.MinMs, s.MaxMs)
	s.P999Ms = clamp(quantile(counts, total, 0.999), s.MinMs, s.MaxMs)
	return s
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// quantile estimates the q-quantile in milliseconds from bucket counts,
// interpolating linearly within the containing bucket.
func quantile(counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(bucketBound(i - 1))
			}
			hi := float64(bucketBound(i))
			frac := (rank - float64(seen)) / float64(c)
			return (lo + frac*(hi-lo)) / 1e6
		}
		seen += c
	}
	return float64(bucketBound(numBuckets-1)) / 1e6
}

// Endpoint aggregates the metrics of one HTTP endpoint.
type Endpoint struct {
	Requests Counter
	Errors   Counter
	Latency  Histogram
}

// EndpointSnapshot is the JSON view of an Endpoint.
type EndpointSnapshot struct {
	Requests int64             `json:"requests"`
	Errors   int64             `json:"errors"`
	Latency  HistogramSnapshot `json:"latency"`
}

// Registry holds all metrics of one server: per-endpoint request metrics
// plus named gauges read at collection time for everything else. Endpoint
// returns stable pointers, so callers resolve them once and then update
// lock-free.
type Registry struct {
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	gauges    map[string]func() float64

	// Latency objective (see SetSLO); 0 means no SLO configured.
	sloObjectiveMs float64
	sloTarget      float64
}

// NewRegistry creates an empty registry; uptime is measured from now.
func NewRegistry() *Registry {
	return &Registry{
		start:     time.Now(),
		endpoints: make(map[string]*Endpoint),
		gauges:    make(map[string]func() float64),
	}
}

// Endpoint returns (creating on first use) the metrics of the named
// endpoint.
func (r *Registry) Endpoint(name string) *Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.endpoints[name]
	if !ok {
		e = &Endpoint{}
		r.endpoints[name] = e
	}
	return e
}

// RegisterGauge registers a named gauge rendered by Snapshot at collection
// time. fn must be safe to call concurrently; re-registering a name replaces
// the previous function.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// RuntimeSnapshot reports Go runtime health: scheduler and heap pressure plus
// cumulative GC work. Pause totals are in seconds to match the Prometheus
// rendering.
type RuntimeSnapshot struct {
	Goroutines         int     `json:"goroutines"`
	HeapAllocBytes     uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes       uint64  `json:"heap_sys_bytes"`
	GCRuns             uint32  `json:"gc_runs"`
	GCPauseTotalSecond float64 `json:"gc_pause_total_seconds"`
}

func readRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSnapshot{
		Goroutines:         runtime.NumGoroutine(),
		HeapAllocBytes:     ms.HeapAlloc,
		HeapSysBytes:       ms.HeapSys,
		GCRuns:             ms.NumGC,
		GCPauseTotalSecond: float64(ms.PauseTotalNs) / 1e9,
	}
}

// Snapshot is the JSON view of a Registry.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Gauges        map[string]float64          `json:"gauges,omitempty"`
	Runtime       RuntimeSnapshot             `json:"runtime"`
	// SLO is present when the registry has a latency objective (SetSLO).
	SLO *SLOReport `json:"slo,omitempty"`
}

// Snapshot captures every metric in the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	eps := make(map[string]*Endpoint, len(r.endpoints))
	for k, v := range r.endpoints {
		eps[k] = v
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	start := r.start
	sloMs, sloTarget := r.sloObjectiveMs, r.sloTarget
	r.mu.Unlock()

	s := Snapshot{
		UptimeSeconds: time.Since(start).Seconds(),
		Endpoints:     make(map[string]EndpointSnapshot, len(eps)),
		Runtime:       readRuntime(),
	}
	for name, e := range eps {
		s.Endpoints[name] = EndpointSnapshot{
			Requests: e.Requests.Load(),
			Errors:   e.Errors.Load(),
			Latency:  e.Latency.Snapshot(),
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for name, fn := range gauges {
			s.Gauges[name] = fn()
		}
	}
	s.SLO = sloReport(sloMs, sloTarget, s.Endpoints)
	return s
}
