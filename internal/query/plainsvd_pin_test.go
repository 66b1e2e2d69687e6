package query

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/trace"
)

// plainURowReads reports the U-row reads of a plain-SVD store, whether the
// .sqz reader hands it back as the bare factors or wrapped around them.
func plainURowReads(t *testing.T, s store.Store) int64 {
	t.Helper()
	switch u := s.(type) {
	case interface{ UStats() *matio.Stats }:
		return u.UStats().RowReads()
	case interface{ Base() *svd.Store }:
		return u.Base().UStats().RowReads()
	}
	t.Fatalf("%T has no U backing", s)
	return 0
}

// TestPlainSVDPinnedAgainstParent pins what a plain-SVD store read back
// from its .sqz answers: for every (selection, aggregate, workers) the
// value bits, the executed ledger, the U-row reads and the EXPLAIN
// estimate; the same for one EvaluateBatch of every case; and a SHA-256
// over the bits of every Cell and Row. The table was recorded by running
// this very test on the commit before plain-SVD stores loaded as delta-free
// SVDD stores, so it holds the served plain-SVD path to its bits, its
// charges and its dispatch. The batch lines' ledger and U reads were
// re-recorded once a batch stopped charging its items' row union once: they
// are the sums of the lone w1 lines, and their value bits did not move. The
// factors are compressed serially from the seeded test matrix, so every
// recorded bit is reproducible.
func TestPlainSVDPinnedAgainstParent(t *testing.T) {
	fresh, err := svd.Compress(matio.NewMem(testMatrix()), 6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, fresh); err != nil {
		t.Fatal(err)
	}
	s, err := store.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Method() != store.MethodSVD {
		t.Fatalf("method %v, want svd", s.Method())
	}
	n, m := s.Dims()
	sels := []struct {
		name string
		sel  Selection
	}{
		{"ascending", Selection{Rows: append(append(seq(2, 30), 33, 40), seq(44, 58)...), Cols: seq(3, m-4)}},
		{"duplicated", Selection{Rows: []int{5, 5, 6, 7, 7, 7, 17, 40, 40, 50, 51, 52, 53, 54}, Cols: []int{2, 9, 9, 11, m - 1, 2}}},
		{"descending", Selection{Rows: []int{57, 56, 55, 54, 53, 41, 40, 39, 17, 9, 8, 3, 0}, Cols: []int{m - 1, 20, 12, 5, 4}}},
		{"interleaved", Selection{Rows: []int{10, 50, 11, 51, 12, 52, 13, 53, 14, 3, 10, 15, 16, 17, 18}, Cols: []int{7, 1, 30, 7, 16}}},
	}
	aggs := []Aggregate{Sum, Avg, StdDev, Min, Max, Count}
	var got []string
	var items []BatchItem
	for _, sl := range sels {
		for _, agg := range aggs {
			items = append(items, BatchItem{Agg: agg, Sel: sl.sel})
			for _, workers := range []int{1, 3} {
				reads := plainURowReads(t, s)
				tr := trace.New("t", "/test")
				v, err := EvaluateOpts(s, agg, sl.sel, Options{Workers: workers, Ctx: trace.NewContext(context.Background(), tr)})
				if err != nil {
					t.Fatalf("%s/%v/w%d: %v", sl.name, agg, workers, err)
				}
				reads = plainURowReads(t, s) - reads
				ex, err := ExplainQuery(s, agg, sl.sel, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s/%v/w%d %016x ledger=%+v ureads=%d explain=%+v",
					sl.name, agg, workers, math.Float64bits(v), tr.Ledger.Snapshot(), reads, *ex))
			}
		}
	}
	for _, workers := range []int{1, 3} {
		reads := plainURowReads(t, s)
		tr := trace.New("t", "/test")
		res, err := EvaluateBatch(s, items, Options{Workers: workers, Ctx: trace.NewContext(context.Background(), tr)})
		if err != nil {
			t.Fatal(err)
		}
		reads = plainURowReads(t, s) - reads
		line := fmt.Sprintf("batch/w%d ledger=%+v ureads=%d", workers, tr.Ledger.Snapshot(), reads)
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("batch/w%d: %v", workers, r.Err)
			}
			line += fmt.Sprintf(" %016x", math.Float64bits(r.Value))
		}
		got = append(got, line)
	}
	h := sha256.New()
	var word [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			v, err := s.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			put(v)
		}
		row, err := s.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range row {
			put(v)
		}
	}
	got = append(got, fmt.Sprintf("cells+rows sha256=%x", h.Sum(nil)))

	if len(got) != len(pinnedPlainSVD) {
		for _, line := range got {
			t.Logf("%q,", line)
		}
		t.Fatalf("%d cases, pinned %d", len(got), len(pinnedPlainSVD))
	}
	for i := range got {
		if got[i] != pinnedPlainSVD[i] {
			t.Errorf("drifted from the parent commit:\n got %s\nwant %s", got[i], pinnedPlainSVD[i])
		}
	}
}

var pinnedPlainSVD = []string{
	"ascending/sum/w1 40c60b149ca73345 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:factored Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/sum/w3 40c60b149ca73345 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:factored Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/avg/w1 401f1762e401b165 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:factored Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/avg/w3 401f1762e401b165 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:factored Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/stddev/w1 402b5dba0102f488 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:factored Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/stddev/w3 402b5dba0102f488 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:factored Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/min/w1 bfacbc3648e8edb0 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:projected Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/min/w3 bfacbc3648e8edb0 ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:projected Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/max/w1 406de8f1d7f71cee ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:projected Workers:1 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/max/w3 406de8f1d7f71cee ledger={RowsRead:44 PagesTouched:44 DeltasProbed:0 WorkerChunks:3 DiskAccesses:44 RowsWritten:0} ureads=44 explain={Plan:projected Workers:3 Cells:1452 ChunkRows:16 Chunks:3 Runs:4 CoalescedScans:3 ScanRows:40 PointRows:4 ZeroRows:0 EstRowsRead:44 EstDiskAccesses:44 EstPagesTouched:44 EstDeltasProbed:0}",
	"ascending/count/w1 4096b00000000000 ledger={RowsRead:0 PagesTouched:0 DeltasProbed:0 WorkerChunks:0 DiskAccesses:0 RowsWritten:0} ureads=0 explain={Plan:count Workers:1 Cells:1452 ChunkRows:0 Chunks:0 Runs:0 CoalescedScans:0 ScanRows:0 PointRows:0 ZeroRows:0 EstRowsRead:0 EstDiskAccesses:0 EstPagesTouched:0 EstDeltasProbed:0}",
	"ascending/count/w3 4096b00000000000 ledger={RowsRead:0 PagesTouched:0 DeltasProbed:0 WorkerChunks:0 DiskAccesses:0 RowsWritten:0} ureads=0 explain={Plan:count Workers:3 Cells:1452 ChunkRows:0 Chunks:0 Runs:0 CoalescedScans:0 ScanRows:0 PointRows:0 ZeroRows:0 EstRowsRead:0 EstDiskAccesses:0 EstPagesTouched:0 EstDeltasProbed:0}",
	"duplicated/sum/w1 4079c7a2434c27df ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:factored Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/sum/w3 4079c7a2434c27df ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:factored Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/avg/w1 4013a44addf0e16d ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:factored Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/avg/w3 4013a44addf0e16d ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:factored Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/stddev/w1 400a919dff0048df ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:factored Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/stddev/w3 400a919dff0048df ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:factored Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/min/w1 3feaf348bd8e9e05 ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:projected Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/min/w3 3feaf348bd8e9e05 ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:projected Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/max/w1 402cb2fbe8a3c35c ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:projected Workers:1 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/max/w3 402cb2fbe8a3c35c ledger={RowsRead:14 PagesTouched:14 DeltasProbed:0 WorkerChunks:1 DiskAccesses:14 RowsWritten:0} ureads=14 explain={Plan:projected Workers:3 Cells:84 ChunkRows:16 Chunks:1 Runs:8 CoalescedScans:1 ScanRows:5 PointRows:9 ZeroRows:0 EstRowsRead:14 EstDiskAccesses:14 EstPagesTouched:14 EstDeltasProbed:0}",
	"duplicated/count/w1 4055000000000000 ledger={RowsRead:0 PagesTouched:0 DeltasProbed:0 WorkerChunks:0 DiskAccesses:0 RowsWritten:0} ureads=0 explain={Plan:count Workers:1 Cells:84 ChunkRows:0 Chunks:0 Runs:0 CoalescedScans:0 ScanRows:0 PointRows:0 ZeroRows:0 EstRowsRead:0 EstDiskAccesses:0 EstPagesTouched:0 EstDeltasProbed:0}",
	"duplicated/count/w3 4055000000000000 ledger={RowsRead:0 PagesTouched:0 DeltasProbed:0 WorkerChunks:0 DiskAccesses:0 RowsWritten:0} ureads=0 explain={Plan:count Workers:3 Cells:84 ChunkRows:0 Chunks:0 Runs:0 CoalescedScans:0 ScanRows:0 PointRows:0 ZeroRows:0 EstRowsRead:0 EstDiskAccesses:0 EstPagesTouched:0 EstDeltasProbed:0}",
	"descending/sum/w1 407ac86f480173ab ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:factored Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/sum/w3 407ac86f480173ab ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:factored Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/avg/w1 401a5ef37a190f6d ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:factored Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/avg/w3 401a5ef37a190f6d ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:factored Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/stddev/w1 4016f35ea749b53d ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:factored Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/stddev/w3 4016f35ea749b53d ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:factored Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/min/w1 0000000000000000 ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:projected Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/min/w3 0000000000000000 ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:projected Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/max/w1 4036d171f8c6c2d3 ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:projected Workers:1 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/max/w3 4036d171f8c6c2d3 ledger={RowsRead:13 PagesTouched:13 DeltasProbed:0 WorkerChunks:1 DiskAccesses:13 RowsWritten:0} ureads=13 explain={Plan:projected Workers:3 Cells:65 ChunkRows:16 Chunks:1 Runs:13 CoalescedScans:0 ScanRows:0 PointRows:13 ZeroRows:0 EstRowsRead:13 EstDiskAccesses:13 EstPagesTouched:13 EstDeltasProbed:0}",
	"descending/count/w1 4050400000000000 ledger={RowsRead:0 PagesTouched:0 DeltasProbed:0 WorkerChunks:0 DiskAccesses:0 RowsWritten:0} ureads=0 explain={Plan:count Workers:1 Cells:65 ChunkRows:0 Chunks:0 Runs:0 CoalescedScans:0 ScanRows:0 PointRows:0 ZeroRows:0 EstRowsRead:0 EstDiskAccesses:0 EstPagesTouched:0 EstDeltasProbed:0}",
	"descending/count/w3 4050400000000000 ledger={RowsRead:0 PagesTouched:0 DeltasProbed:0 WorkerChunks:0 DiskAccesses:0 RowsWritten:0} ureads=0 explain={Plan:count Workers:3 Cells:65 ChunkRows:0 Chunks:0 Runs:0 CoalescedScans:0 ScanRows:0 PointRows:0 ZeroRows:0 EstRowsRead:0 EstDiskAccesses:0 EstPagesTouched:0 EstDeltasProbed:0}",
	"interleaved/sum/w1 40786210a497c620 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:factored Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/sum/w3 40786210a497c620 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:factored Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/avg/w1 4014ce8fe89cd207 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:factored Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/avg/w3 4014ce8fe89cd207 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:factored Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/stddev/w1 401124ccc35528da ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:factored Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/stddev/w3 401124ccc35528da ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:factored Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/min/w1 0000000000000000 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:projected Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/min/w3 0000000000000000 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:projected Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/max/w1 4035131a13c77f18 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:projected Workers:1 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/max/w3 4035131a13c77f18 ledger={RowsRead:15 PagesTouched:15 DeltasProbed:0 WorkerChunks:1 DiskAccesses:15 RowsWritten:0} ureads=15 explain={Plan:projected Workers:3 Cells:75 ChunkRows:16 Chunks:1 Runs:12 CoalescedScans:1 ScanRows:4 PointRows:11 ZeroRows:0 EstRowsRead:15 EstDiskAccesses:15 EstPagesTouched:15 EstDeltasProbed:0}",
	"interleaved/count/w1 4052c00000000000 ledger={RowsRead:0 PagesTouched:0 DeltasProbed:0 WorkerChunks:0 DiskAccesses:0 RowsWritten:0} ureads=0 explain={Plan:count Workers:1 Cells:75 ChunkRows:0 Chunks:0 Runs:0 CoalescedScans:0 ScanRows:0 PointRows:0 ZeroRows:0 EstRowsRead:0 EstDiskAccesses:0 EstPagesTouched:0 EstDeltasProbed:0}",
	"interleaved/count/w3 4052c00000000000 ledger={RowsRead:0 PagesTouched:0 DeltasProbed:0 WorkerChunks:0 DiskAccesses:0 RowsWritten:0} ureads=0 explain={Plan:count Workers:3 Cells:75 ChunkRows:0 Chunks:0 Runs:0 CoalescedScans:0 ScanRows:0 PointRows:0 ZeroRows:0 EstRowsRead:0 EstDiskAccesses:0 EstPagesTouched:0 EstDeltasProbed:0}",
	"batch/w1 ledger={RowsRead:430 PagesTouched:430 DeltasProbed:0 WorkerChunks:30 DiskAccesses:430 RowsWritten:0} ureads=430 40c60b149ca73345 401f1762e401b165 402b5dba0102f488 bfacbc3648e8edb0 406de8f1d7f71cee 4096b00000000000 4079c7a2434c27df 4013a44addf0e16d 400a919dff0048df 3feaf348bd8e9e05 402cb2fbe8a3c35c 4055000000000000 407ac86f480173ab 401a5ef37a190f6d 4016f35ea749b53d 0000000000000000 4036d171f8c6c2d3 4050400000000000 40786210a497c620 4014ce8fe89cd207 401124ccc35528da 0000000000000000 4035131a13c77f18 4052c00000000000",
	"batch/w3 ledger={RowsRead:430 PagesTouched:430 DeltasProbed:0 WorkerChunks:30 DiskAccesses:430 RowsWritten:0} ureads=430 40c60b149ca73345 401f1762e401b165 402b5dba0102f488 bfacbc3648e8edb0 406de8f1d7f71cee 4096b00000000000 4079c7a2434c27df 4013a44addf0e16d 400a919dff0048df 3feaf348bd8e9e05 402cb2fbe8a3c35c 4055000000000000 407ac86f480173ab 401a5ef37a190f6d 4016f35ea749b53d 0000000000000000 4036d171f8c6c2d3 4050400000000000 40786210a497c620 4014ce8fe89cd207 401124ccc35528da 0000000000000000 4035131a13c77f18 4052c00000000000",
	"cells+rows sha256=9dc318a52d57abbca7d7d8566ea917e7eaf4189c1801df0fd1a80991ad08b5de",
}
