package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNewRequestID: a trace given no request id mints one — 16 hex
// characters that survive sanitization and never repeat — beside its own
// trace and span ids; a given id is kept.
func TestNewRequestID(t *testing.T) {
	seen := make(map[string]bool)
	parent := SpanContext{TraceID: "0123456789abcdef0123456789abcdef", SpanID: "0123456789abcdef"}
	for i := 0; i < 100; i++ {
		tr := New("", "/v1/cell")
		if i%2 == 1 {
			tr = NewChild("", "/v1/cell", parent)
		}
		id := tr.ID()
		if sc := tr.SpanContext(); !sc.Valid() || seen[sc.SpanID] {
			t.Fatalf("trace ids %+v: invalid or repeated", sc)
		}
		seen[tr.SpanContext().SpanID] = true
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if SanitizeRequestID(id) != id {
			t.Fatalf("generated id %q does not survive sanitization", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	if tr := New("client-7", "/v1/cell"); tr.ID() != "client-7" {
		t.Fatalf("given request id replaced by %q", tr.ID())
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc-123.X_z", "abc-123.X_z"},
		{"", ""},
		{"has space", ""},
		{"newline\n", ""},
		{"quote\"", ""},
		{"curl/7.88", ""},
		{strings.Repeat("a", MaxRequestIDLen), strings.Repeat("a", MaxRequestIDLen)},
		{strings.Repeat("a", MaxRequestIDLen+1), ""},
	}
	for _, c := range cases {
		if got := SanitizeRequestID(c.in); got != c.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	// Every method must tolerate a nil receiver: this is what makes the
	// instrumentation branch-free at its call sites.
	l.AddRowsRead(1)
	l.AddPagesTouched(1)
	l.AddDeltasProbed(1)
	l.AddWorkerChunks(1)
	l.AddDiskAccesses(1)
	if l.DiskAccesses() != 0 {
		t.Error("nil ledger reports accesses")
	}
	if l.Snapshot() != (LedgerSnapshot{}) {
		t.Error("nil ledger snapshot not zero")
	}
}

func TestLedgerCounts(t *testing.T) {
	var l Ledger
	l.AddRowsRead(3)
	l.AddPagesTouched(2)
	l.AddDeltasProbed(7)
	l.AddWorkerChunks(4)
	l.AddDiskAccesses(1)
	want := LedgerSnapshot{RowsRead: 3, PagesTouched: 2, DeltasProbed: 7, WorkerChunks: 4, DiskAccesses: 1}
	if got := l.Snapshot(); got != want {
		t.Errorf("snapshot = %+v, want %+v", got, want)
	}
}

func TestTraceSpansAndFinish(t *testing.T) {
	tr := New("req-1", "/v1/agg")
	sp := tr.StartSpan("evaluate")
	sp.SetAttr("f", "avg")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Ledger.AddDiskAccesses(5)

	snap := tr.Finish(200)
	if snap.RequestID != "req-1" || snap.Name != "/v1/agg" || snap.Status != 200 {
		t.Errorf("snapshot header: %+v", snap)
	}
	if snap.DurationUs <= 0 {
		t.Errorf("duration = %d", snap.DurationUs)
	}
	if snap.Cost.DiskAccesses != 5 {
		t.Errorf("cost = %+v", snap.Cost)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %v", snap.Spans)
	}
	s := snap.Spans[0]
	if s.Name != "evaluate" || s.DurationUs < 900 || s.StartOffsetUs < 0 {
		t.Errorf("span = %+v", s)
	}
	if len(s.Attrs) != 1 || s.Attrs[0].Key != "f" || s.Attrs[0].Value != "avg" {
		t.Errorf("attrs = %+v", s.Attrs)
	}
	// Snapshot must marshal cleanly for /v1/debug/traces.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestNilTraceAndSpanAreNoOps(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	sp.SetAttr("k", 1)
	sp.End()
	if tr.Finish(200) != nil {
		t.Error("nil trace finishes to non-nil snapshot")
	}
	if tr.ID() != "" {
		t.Error("nil trace has an ID")
	}
}

func TestContextPlumbing(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context carries a trace")
	}
	if LedgerFrom(context.Background()) != nil {
		t.Error("empty context carries a ledger")
	}
	tr := New("id", "/v1/cell")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace did not round-trip through context")
	}
	LedgerFrom(ctx).AddDiskAccesses(2)
	if tr.Ledger.DiskAccesses() != 2 {
		t.Error("context ledger is not the trace's ledger")
	}
	sp := StartSpan(ctx, "work")
	sp.End()
	if snap := tr.Finish(200); len(snap.Spans) != 1 {
		t.Errorf("spans = %v", snap.Spans)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	r := NewRing(3)
	if r.Cap() != 3 {
		t.Fatalf("cap = %d", r.Cap())
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 0; i < 5; i++ {
		r.Put(&TraceSnapshot{RequestID: fmt.Sprint(i)})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Newest first: 4, 3, 2 survive.
	for i, want := range []string{"4", "3", "2"} {
		if got[i].RequestID != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, got[i].RequestID, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("total = %d", r.Total())
	}
	r.Put(nil) // ignored
	if r.Total() != 5 {
		t.Error("nil Put counted")
	}
}

func TestRingDefaultSize(t *testing.T) {
	if NewRing(0).Cap() != DefaultRingSize {
		t.Error("zero capacity did not select the default")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Put(&TraceSnapshot{RequestID: fmt.Sprintf("%d-%d", w, i)})
				r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Errorf("total = %d, want 800", r.Total())
	}
	if len(r.Snapshot()) != 8 {
		t.Errorf("snapshot len = %d", len(r.Snapshot()))
	}
}

func TestConcurrentLedgerAndSpans(t *testing.T) {
	tr := New("id", "/v1/agg")
	ctx := NewContext(context.Background(), tr)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			led := LedgerFrom(ctx)
			for i := 0; i < 100; i++ {
				led.AddRowsRead(1)
				led.AddWorkerChunks(1)
			}
			sp := StartSpan(ctx, "worker")
			sp.End()
		}()
	}
	wg.Wait()
	snap := tr.Finish(200)
	if snap.Cost.RowsRead != 800 || snap.Cost.WorkerChunks != 800 {
		t.Errorf("cost = %+v", snap.Cost)
	}
	if len(snap.Spans) != 8 {
		t.Errorf("spans = %d", len(snap.Spans))
	}
}
