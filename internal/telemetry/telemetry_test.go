package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P50Ms != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	h.Observe(1 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.MinMs > 1.0+1e-9 || s.MinMs <= 0 {
		t.Errorf("min = %v ms, want ~1", s.MinMs)
	}
	if s.MaxMs < 4.0-1e-9 {
		t.Errorf("max = %v ms, want ~4", s.MaxMs)
	}
	wantMean := (1.0 + 2.0 + 4.0) / 3
	if diff := s.MeanMs - wantMean; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("mean = %v ms, want %v", s.MeanMs, wantMean)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations at ~1ms, 10 at ~100ms: p50 must sit near 1ms, p99
	// near 100ms (within the 2x bucket resolution).
	for i := 0; i < 100; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.P50Ms > 2.0 {
		t.Errorf("p50 = %v ms, want <= 2ms bucket", s.P50Ms)
	}
	if s.P99Ms < 50 || s.P99Ms > 150 {
		t.Errorf("p99 = %v ms, want within 2x of 100ms", s.P99Ms)
	}
	if s.P50Ms > s.P90Ms || s.P90Ms > s.P99Ms {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v", s.P50Ms, s.P90Ms, s.P99Ms)
	}
}

func TestHistogramZeroDuration(t *testing.T) {
	var h Histogram
	h.Observe(0)
	s := h.Snapshot()
	if s.Count != 1 || s.MinMs != 0 || s.MaxMs != 0 {
		t.Fatalf("zero-duration snapshot: %+v", s)
	}
}

func TestHistogramZeroOnlyQuantilesClamped(t *testing.T) {
	// A histogram holding only 0ns observations must not interpolate a p99
	// above its max: min, max and every quantile are exactly 0.
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(0)
	}
	s := h.Snapshot()
	if s.MinMs != 0 || s.MaxMs != 0 {
		t.Fatalf("min/max: %+v", s)
	}
	if s.P50Ms != 0 || s.P90Ms != 0 || s.P99Ms != 0 {
		t.Errorf("quantiles exceed max: p50=%v p90=%v p99=%v", s.P50Ms, s.P90Ms, s.P99Ms)
	}
}

func TestHistogramQuantilesWithinObservedRange(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	s := h.Snapshot()
	// Single observation: every quantile collapses onto it.
	for _, q := range []float64{s.P50Ms, s.P90Ms, s.P99Ms} {
		if q < s.MinMs || q > s.MaxMs {
			t.Errorf("quantile %v outside [%v, %v]", q, s.MinMs, s.MaxMs)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var inBuckets int64
	for _, b := range s.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, s.Count)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	ep := r.Endpoint("/cell")
	if r.Endpoint("/cell") != ep {
		t.Fatal("Endpoint not stable across calls")
	}
	ep.Requests.Inc()
	ep.Errors.Inc()
	ep.Latency.Observe(time.Millisecond)

	s := r.Snapshot()
	if s.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", s.UptimeSeconds)
	}
	cell := s.Endpoints["/cell"]
	if cell.Requests != 1 || cell.Errors != 1 || cell.Latency.Count != 1 {
		t.Errorf("endpoint snapshot: %+v", cell)
	}
	// The snapshot must be JSON-marshalable (it backs /metrics).
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
}

func TestRegistryGaugesAndRuntime(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.RegisterGauge("cache_occupancy", func() float64 { return v })
	r.RegisterGauge("nil_ignored", nil)

	s := r.Snapshot()
	if got := s.Gauges["cache_occupancy"]; got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	if _, ok := s.Gauges["nil_ignored"]; ok {
		t.Error("nil gauge function was registered")
	}
	v = 2.5
	if got := r.Snapshot().Gauges["cache_occupancy"]; got != 2.5 {
		t.Errorf("gauge not re-evaluated at snapshot time: %v", got)
	}
	if s.Runtime.Goroutines <= 0 {
		t.Errorf("goroutines = %d", s.Runtime.Goroutines)
	}
	if s.Runtime.HeapAllocBytes == 0 || s.Runtime.HeapSysBytes == 0 {
		t.Errorf("heap stats zero: %+v", s.Runtime)
	}
}
