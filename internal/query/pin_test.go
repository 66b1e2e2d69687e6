package query

import (
	"fmt"
	"math"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/matio"
)

// TestPinnedAgainstParent pins, for a fixed (store, aggregate, selection,
// workers), the value bits, the executed ledger, the store's row-probe
// count and the EXPLAIN estimate to what the map-indexed delta overlay
// (the commit before the CSR row index and the plan digests) produced.
// The table was recorded by running this very test on that commit. The
// stores are compressed serially, so the factors — and with them every
// recorded bit — are a pure function of the seeded test matrix.
func TestPinnedAgainstParent(t *testing.T) {
	plain, err := core.Compress(matio.NewMem(testMatrix()), core.Options{Budget: 0.15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	flagged, _, _, _ := zeroRowStore(t)
	stores := []struct {
		name string
		s    *core.Store
	}{{"plain", plain}, {"zeroflags", flagged}}
	_, m := plain.Dims()
	sels := []struct {
		name string
		sel  Selection
	}{
		{"ascending", Selection{Rows: append(append(seq(2, 30), 33, 40), seq(44, 58)...), Cols: seq(3, m-4)}},
		{"duplicated", Selection{Rows: []int{5, 5, 6, 7, 7, 7, 17, 40, 40, 50, 51, 52, 53, 54}, Cols: []int{2, 9, 9, 11, m - 1, 2}}},
		{"descending", Selection{Rows: []int{57, 56, 55, 54, 53, 41, 40, 39, 17, 9, 8, 3, 0}, Cols: []int{m - 1, 20, 12, 5, 4}}},
		{"interleaved", Selection{Rows: []int{10, 50, 11, 51, 12, 52, 13, 53, 14, 3, 10, 15, 16, 17, 18}, Cols: []int{7, 1, 30, 7, 16}}},
	}
	var got []string
	for _, st := range stores {
		for _, sl := range sels {
			for _, agg := range []Aggregate{Sum, StdDev, Min} {
				for _, workers := range []int{1, 3} {
					probes := st.s.RowProbes()
					v, cost := tracedEval(t, st.s, agg, sl.sel, workers)
					probes = st.s.RowProbes() - probes
					ex, err := ExplainQuery(st.s, agg, sl.sel, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, fmt.Sprintf("%s/%s/%v/w%d %016x ledger=%+v probes=%d explain=%+v",
						st.name, sl.name, agg, workers, math.Float64bits(v), cost, probes, *ex))
				}
			}
		}
	}
	if len(got) != len(pinnedParent) {
		t.Fatalf("%d cases, pinned %d", len(got), len(pinnedParent))
	}
	for i := range got {
		if got[i] != pinnedParent[i] {
			t.Errorf("drifted from the parent commit:\n got %s\nwant %s", got[i], pinnedParent[i])
		}
	}
}

var pinnedParent = []string{
	"plain/ascending/sum/w1 40c62f7d10b061cc ledger={RowsRead:44 PagesTouched:44 DeltasProbed:16 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} probes=44 explain={Plan:factored Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:16}",
	"plain/ascending/sum/w3 40c62f7d10b061cc ledger={RowsRead:44 PagesTouched:44 DeltasProbed:16 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} probes=44 explain={Plan:factored Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:16}",
	"plain/ascending/stddev/w1 402b017f824f146e ledger={RowsRead:50 PagesTouched:50 DeltasProbed:16 WorkerChunks:3 DiskAccesses:50 RowsWritten:0} probes=44 explain={Plan:factored Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:50 EstDiskAccesses:50 EstPagesTouched:50 EstDeltasProbed:16}",
	"plain/ascending/stddev/w3 402b017f824f146e ledger={RowsRead:50 PagesTouched:50 DeltasProbed:16 WorkerChunks:3 DiskAccesses:50 RowsWritten:0} probes=44 explain={Plan:factored Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:50 EstDiskAccesses:50 EstPagesTouched:50 EstDeltasProbed:16}",
	"plain/ascending/min/w1 c0184c8a24be3561 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:16 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} probes=44 explain={Plan:projected Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:16}",
	"plain/ascending/min/w3 c0184c8a24be3561 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:16 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} probes=44 explain={Plan:projected Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:16}",
	"plain/duplicated/sum/w1 407a98c4dd444bbe ledger={RowsRead:14 PagesTouched:14 DeltasProbed:12 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} probes=10 explain={Plan:factored Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:12}",
	"plain/duplicated/sum/w3 407a98c4dd444bbe ledger={RowsRead:14 PagesTouched:14 DeltasProbed:12 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} probes=10 explain={Plan:factored Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:12}",
	"plain/duplicated/stddev/w1 400f302a2007b201 ledger={RowsRead:14 PagesTouched:14 DeltasProbed:12 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} probes=10 explain={Plan:factored Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:12}",
	"plain/duplicated/stddev/w3 400f302a2007b201 ledger={RowsRead:14 PagesTouched:14 DeltasProbed:12 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} probes=10 explain={Plan:factored Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:12}",
	"plain/duplicated/min/w1 c008b5f1e08ad0c7 ledger={RowsRead:14 PagesTouched:14 DeltasProbed:22 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} probes=14 explain={Plan:projected Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:22}",
	"plain/duplicated/min/w3 c008b5f1e08ad0c7 ledger={RowsRead:14 PagesTouched:14 DeltasProbed:22 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} probes=14 explain={Plan:projected Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:22}",
	"plain/descending/sum/w1 407a074bbe3a3eaa ledger={RowsRead:13 PagesTouched:13 DeltasProbed:2 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} probes=13 explain={Plan:factored Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:2}",
	"plain/descending/sum/w3 407a074bbe3a3eaa ledger={RowsRead:13 PagesTouched:13 DeltasProbed:2 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} probes=13 explain={Plan:factored Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:2}",
	"plain/descending/stddev/w1 401398f101f85564 ledger={RowsRead:13 PagesTouched:13 DeltasProbed:2 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} probes=13 explain={Plan:factored Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:2}",
	"plain/descending/stddev/w3 401398f101f85564 ledger={RowsRead:13 PagesTouched:13 DeltasProbed:2 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} probes=13 explain={Plan:factored Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:2}",
	"plain/descending/min/w1 0000000000000000 ledger={RowsRead:13 PagesTouched:13 DeltasProbed:2 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} probes=13 explain={Plan:projected Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:2}",
	"plain/descending/min/w3 0000000000000000 ledger={RowsRead:13 PagesTouched:13 DeltasProbed:2 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} probes=13 explain={Plan:projected Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:2}",
	"plain/interleaved/sum/w1 4079523929ec15e1 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:2 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} probes=14 explain={Plan:factored Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:2}",
	"plain/interleaved/sum/w3 4079523929ec15e1 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:2 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} probes=14 explain={Plan:factored Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:2}",
	"plain/interleaved/stddev/w1 40101ca0437add4d ledger={RowsRead:15 PagesTouched:15 DeltasProbed:2 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} probes=14 explain={Plan:factored Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:2}",
	"plain/interleaved/stddev/w3 40101ca0437add4d ledger={RowsRead:15 PagesTouched:15 DeltasProbed:2 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} probes=14 explain={Plan:factored Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:2}",
	"plain/interleaved/min/w1 0000000000000000 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:2 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} probes=15 explain={Plan:projected Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:2}",
	"plain/interleaved/min/w3 0000000000000000 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:2 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} probes=15 explain={Plan:projected Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:2}",
	"zeroflags/ascending/sum/w1 40c18993b5156d8d ledger={RowsRead:44 PagesTouched:42 DeltasProbed:9 WorkerChunks:3 DiskAccesses:42 RowsWritten:0} probes=44 explain={Plan:factored Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:2 EstRowsRead:44 EstDiskAccesses:42 EstPagesTouched:42 EstDeltasProbed:9}",
	"zeroflags/ascending/sum/w3 40c18993b5156d8d ledger={RowsRead:44 PagesTouched:42 DeltasProbed:9 WorkerChunks:3 DiskAccesses:42 RowsWritten:0} probes=44 explain={Plan:factored Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:2 EstRowsRead:44 EstDiskAccesses:42 EstPagesTouched:42 EstDeltasProbed:9}",
	"zeroflags/ascending/stddev/w1 40267bf976c8e15c ledger={RowsRead:46 PagesTouched:44 DeltasProbed:9 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} probes=44 explain={Plan:factored Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:2 EstRowsRead:46 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:9}",
	"zeroflags/ascending/stddev/w3 40267bf976c8e15c ledger={RowsRead:46 PagesTouched:44 DeltasProbed:9 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} probes=44 explain={Plan:factored Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:2 EstRowsRead:46 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:9}",
	"zeroflags/ascending/min/w1 c002cd9572c17944 ledger={RowsRead:44 PagesTouched:42 DeltasProbed:9 WorkerChunks:3 DiskAccesses:42 RowsWritten:0} probes=42 explain={Plan:projected Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:2 EstRowsRead:44 EstDiskAccesses:42 EstPagesTouched:42 EstDeltasProbed:9}",
	"zeroflags/ascending/min/w3 c002cd9572c17944 ledger={RowsRead:44 PagesTouched:42 DeltasProbed:9 WorkerChunks:3 DiskAccesses:42 RowsWritten:0} probes=42 explain={Plan:projected Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:2 EstRowsRead:44 EstDiskAccesses:42 EstPagesTouched:42 EstDeltasProbed:9}",
	"zeroflags/duplicated/sum/w1 405dcfa1e4bffe5c ledger={RowsRead:14 PagesTouched:11 DeltasProbed:0 WorkerChunks:1 DiskAccesses:11 RowsWritten:0} probes=10 explain={Plan:factored Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:3 EstRowsRead:14 EstDiskAccesses:11 EstPagesTouched:11 EstDeltasProbed:0}",
	"zeroflags/duplicated/sum/w3 405dcfa1e4bffe5c ledger={RowsRead:14 PagesTouched:11 DeltasProbed:0 WorkerChunks:1 DiskAccesses:11 RowsWritten:0} probes=10 explain={Plan:factored Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:3 EstRowsRead:14 EstDiskAccesses:11 EstPagesTouched:11 EstDeltasProbed:0}",
	"zeroflags/duplicated/stddev/w1 40030ad4bacca61b ledger={RowsRead:14 PagesTouched:11 DeltasProbed:0 WorkerChunks:1 DiskAccesses:11 RowsWritten:0} probes=10 explain={Plan:factored Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:3 EstRowsRead:14 EstDiskAccesses:11 EstPagesTouched:11 EstDeltasProbed:0}",
	"zeroflags/duplicated/stddev/w3 40030ad4bacca61b ledger={RowsRead:14 PagesTouched:11 DeltasProbed:0 WorkerChunks:1 DiskAccesses:11 RowsWritten:0} probes=10 explain={Plan:factored Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:3 EstRowsRead:14 EstDiskAccesses:11 EstPagesTouched:11 EstDeltasProbed:0}",
	"zeroflags/duplicated/min/w1 0000000000000000 ledger={RowsRead:14 PagesTouched:11 DeltasProbed:0 WorkerChunks:1 DiskAccesses:11 RowsWritten:0} probes=11 explain={Plan:projected Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:3 EstRowsRead:14 EstDiskAccesses:11 EstPagesTouched:11 EstDeltasProbed:0}",
	"zeroflags/duplicated/min/w3 0000000000000000 ledger={RowsRead:14 PagesTouched:11 DeltasProbed:0 WorkerChunks:1 DiskAccesses:11 RowsWritten:0} probes=11 explain={Plan:projected Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:3 EstRowsRead:14 EstDiskAccesses:11 EstPagesTouched:11 EstDeltasProbed:0}",
	"zeroflags/descending/sum/w1 4068084e3a8a6705 ledger={RowsRead:13 PagesTouched:6 DeltasProbed:0 WorkerChunks:1 DiskAccesses:6 RowsWritten:0} probes=13 explain={Plan:factored Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:7 EstRowsRead:13 EstDiskAccesses:6 EstPagesTouched:6 EstDeltasProbed:0}",
	"zeroflags/descending/sum/w3 4068084e3a8a6705 ledger={RowsRead:13 PagesTouched:6 DeltasProbed:0 WorkerChunks:1 DiskAccesses:6 RowsWritten:0} probes=13 explain={Plan:factored Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:7 EstRowsRead:13 EstDiskAccesses:6 EstPagesTouched:6 EstDeltasProbed:0}",
	"zeroflags/descending/stddev/w1 40121307075ac84e ledger={RowsRead:13 PagesTouched:6 DeltasProbed:0 WorkerChunks:1 DiskAccesses:6 RowsWritten:0} probes=13 explain={Plan:factored Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:7 EstRowsRead:13 EstDiskAccesses:6 EstPagesTouched:6 EstDeltasProbed:0}",
	"zeroflags/descending/stddev/w3 40121307075ac84e ledger={RowsRead:13 PagesTouched:6 DeltasProbed:0 WorkerChunks:1 DiskAccesses:6 RowsWritten:0} probes=13 explain={Plan:factored Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:7 EstRowsRead:13 EstDiskAccesses:6 EstPagesTouched:6 EstDeltasProbed:0}",
	"zeroflags/descending/min/w1 bfc2beeb27864458 ledger={RowsRead:13 PagesTouched:6 DeltasProbed:0 WorkerChunks:1 DiskAccesses:6 RowsWritten:0} probes=6 explain={Plan:projected Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:7 EstRowsRead:13 EstDiskAccesses:6 EstPagesTouched:6 EstDeltasProbed:0}",
	"zeroflags/descending/min/w3 bfc2beeb27864458 ledger={RowsRead:13 PagesTouched:6 DeltasProbed:0 WorkerChunks:1 DiskAccesses:6 RowsWritten:0} probes=6 explain={Plan:projected Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:7 EstRowsRead:13 EstDiskAccesses:6 EstPagesTouched:6 EstDeltasProbed:0}",
	"zeroflags/interleaved/sum/w1 4063cf87942d1b67 ledger={RowsRead:15 PagesTouched:10 DeltasProbed:0 WorkerChunks:1 DiskAccesses:10 RowsWritten:0} probes=14 explain={Plan:factored Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:5 EstRowsRead:15 EstDiskAccesses:10 EstPagesTouched:10 EstDeltasProbed:0}",
	"zeroflags/interleaved/sum/w3 4063cf87942d1b67 ledger={RowsRead:15 PagesTouched:10 DeltasProbed:0 WorkerChunks:1 DiskAccesses:10 RowsWritten:0} probes=14 explain={Plan:factored Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:5 EstRowsRead:15 EstDiskAccesses:10 EstPagesTouched:10 EstDeltasProbed:0}",
	"zeroflags/interleaved/stddev/w1 400a7654fad774dc ledger={RowsRead:15 PagesTouched:10 DeltasProbed:0 WorkerChunks:1 DiskAccesses:10 RowsWritten:0} probes=14 explain={Plan:factored Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:5 EstRowsRead:15 EstDiskAccesses:10 EstPagesTouched:10 EstDeltasProbed:0}",
	"zeroflags/interleaved/stddev/w3 400a7654fad774dc ledger={RowsRead:15 PagesTouched:10 DeltasProbed:0 WorkerChunks:1 DiskAccesses:10 RowsWritten:0} probes=14 explain={Plan:factored Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:5 EstRowsRead:15 EstDiskAccesses:10 EstPagesTouched:10 EstDeltasProbed:0}",
	"zeroflags/interleaved/min/w1 0000000000000000 ledger={RowsRead:15 PagesTouched:10 DeltasProbed:0 WorkerChunks:1 DiskAccesses:10 RowsWritten:0} probes=10 explain={Plan:projected Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:5 EstRowsRead:15 EstDiskAccesses:10 EstPagesTouched:10 EstDeltasProbed:0}",
	"zeroflags/interleaved/min/w3 0000000000000000 ledger={RowsRead:15 PagesTouched:10 DeltasProbed:0 WorkerChunks:1 DiskAccesses:10 RowsWritten:0} probes=10 explain={Plan:projected Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:5 EstRowsRead:15 EstDiskAccesses:10 EstPagesTouched:10 EstDeltasProbed:0}",
}
