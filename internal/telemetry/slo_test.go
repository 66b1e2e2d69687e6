package telemetry

import (
	"math"
	"testing"
	"time"
)

func snapshotWith(durs ...time.Duration) HistogramSnapshot {
	var h Histogram
	for _, d := range durs {
		h.Observe(d)
	}
	return h.Snapshot()
}

func TestFractionBelow(t *testing.T) {
	// Empty histogram: everything trivially meets the objective.
	if got := snapshotWith().FractionBelow(1); got != 1 {
		t.Fatalf("empty FractionBelow = %v, want 1", got)
	}

	// All observations in one bucket well under the objective.
	s := snapshotWith(time.Millisecond, time.Millisecond, time.Millisecond)
	if got := s.FractionBelow(1000); got != 1 {
		t.Fatalf("all-fast FractionBelow = %v, want 1", got)
	}
	if got := s.FractionBelow(0.0001); got != 0 {
		t.Fatalf("objective below every bucket: FractionBelow = %v, want 0", got)
	}

	// Half fast, half slow around the objective: the fast half counts in
	// full, the slow half not at all.
	s = snapshotWith(time.Millisecond, time.Millisecond, 4*time.Second, 4*time.Second)
	got := s.FractionBelow(100)
	if got < 0.45 || got > 0.55 {
		t.Fatalf("split FractionBelow = %v, want ~0.5", got)
	}

	// Interpolation inside a bucket is monotone in the objective.
	s = snapshotWith(3 * time.Millisecond)
	lo, hi := s.FractionBelow(2.5), s.FractionBelow(3.9)
	if lo > hi {
		t.Fatalf("FractionBelow not monotone: f(2.5)=%v > f(3.9)=%v", lo, hi)
	}
}

func TestSLOReport(t *testing.T) {
	r := NewRegistry()
	r.SetSLO(100, 0.9)
	ep := r.Endpoint("/v1/cell")
	for i := 0; i < 9; i++ {
		ep.Latency.Observe(time.Millisecond)
	}
	ep.Latency.Observe(10 * time.Second) // one breach in ten

	rep := r.Snapshot().SLO
	if rep == nil || rep.ObjectiveMs != 100 || rep.Target != 0.9 {
		t.Fatalf("report config: %+v", rep)
	}
	if len(rep.Endpoints) != 1 || rep.Endpoints[0].Endpoint != "/v1/cell" {
		t.Fatalf("report endpoints: %+v", rep.Endpoints)
	}
	e := rep.Endpoints[0]
	if e.Attainment < 0.85 || e.Attainment > 0.95 {
		t.Fatalf("attainment = %v, want ~0.9", e.Attainment)
	}
	// Burning exactly the budget ⇒ burn rate ~1.
	if e.BurnRate < 0.5 || e.BurnRate > 1.5 {
		t.Fatalf("burn rate = %v, want ~1", e.BurnRate)
	}

	// A perfect target clamps so the burn-rate denominator stays finite.
	r2 := NewRegistry()
	r2.SetSLO(100, 1.0)
	ep2 := r2.Endpoint("/x")
	ep2.Latency.Observe(time.Minute)
	rep2 := r2.Snapshot().SLO
	if math.IsInf(rep2.Endpoints[0].BurnRate, 1) || math.IsNaN(rep2.Endpoints[0].BurnRate) {
		t.Fatalf("burn rate not finite at target 1.0: %v", rep2.Endpoints[0].BurnRate)
	}

	// No objective, no report.
	r3 := NewRegistry()
	if r3.Snapshot().SLO != nil {
		t.Fatal("SLO report present without an objective")
	}
}
