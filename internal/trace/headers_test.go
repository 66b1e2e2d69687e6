package trace

import (
	"net/http"
	"testing"
)

func TestCostHeadersRoundTrip(t *testing.T) {
	snap := LedgerSnapshot{
		RowsRead: 3, PagesTouched: 7,
		DeltasProbed: 11, WorkerChunks: 4, DiskAccesses: 9,
		RowsWritten: 5, PlanHits: 6, PlanMisses: 8,
	}
	for _, big := range []int64{0, 255, 256, 1 << 40} {
		snap.RowsRead = big
		h := make(http.Header)
		EncodeCostHeaders(h, snap)
		if got := ParseCostHeaders(h); got != snap {
			t.Fatalf("round trip: got %+v, want %+v", got, snap)
		}
		// The headers are assigned, not Set, so their names must already
		// be canonical, and a shared value must not be appendable in place.
		for name, v := range h {
			if http.CanonicalHeaderKey(name) != name || len(v) != 1 || cap(v) != 1 {
				t.Fatalf("header %q = %q (cap %d)", name, v, cap(v))
			}
		}
	}
	// Zeros are written explicitly, not omitted.
	h := make(http.Header)
	EncodeCostHeaders(h, LedgerSnapshot{})
	if h.Get(HeaderDiskAccesses) != "0" {
		t.Fatalf("zero disk accesses not encoded: %q", h.Get(HeaderDiskAccesses))
	}
	// Missing/malformed headers parse as zero rather than erroring.
	h = make(http.Header)
	h.Set(HeaderRowsRead, "not-a-number")
	if got := ParseCostHeaders(h); got != (LedgerSnapshot{}) {
		t.Fatalf("malformed headers: got %+v, want zero", got)
	}
}

func TestLedgerAddSnapshot(t *testing.T) {
	var l Ledger
	l.AddDiskAccesses(2)
	l.AddSnapshot(LedgerSnapshot{DiskAccesses: 5, RowsRead: 3, PlanMisses: 1})
	l.AddSnapshot(LedgerSnapshot{DiskAccesses: 4})
	got := l.Snapshot()
	if got.DiskAccesses != 11 || got.RowsRead != 3 || got.PlanMisses != 1 {
		t.Fatalf("folded snapshot = %+v", got)
	}
	// Nil-safety matches the rest of the Ledger API.
	var nilLedger *Ledger
	nilLedger.AddSnapshot(LedgerSnapshot{DiskAccesses: 1})
}
