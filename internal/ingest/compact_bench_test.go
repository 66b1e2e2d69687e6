package ingest

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/store"
)

// BenchmarkCompactPersist times what a bulk stuck behind a compaction waits
// for: Compact of 64 hot rows — the fold, the whole-segment persist, the WAL
// checkpoint — into a cold segment of N rows, shaped like the one the bench
// module's ingest_mixed workload grows (phone data, 366 days, 4 000 rows
// compressed at a 10 % budget, the rest folded in 8 deltas a row). The 64-row
// append that feeds each compaction is outside the timer; N creeps up by 64
// per iteration. The in-tree twin of bench's ingest.compact_ms and
// ingest.max_compact_pause_us.
func BenchmarkCompactPersist(b *testing.B) {
	const compressed, batch = 4000, 64
	seed, err := core.Compress(matio.NewMem(dataset.GeneratePhone(dataset.DefaultPhoneConfig(compressed))), core.Options{Budget: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	var sqz bytes.Buffer
	if err := store.Write(&sqz, seed); err != nil {
		b.Fatal(err)
	}
	fresh := dataset.GeneratePhone(dataset.DefaultPhoneConfig(20000))
	for _, n := range []int{4000, 12000, 20000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			decoded, err := store.Read(bytes.NewReader(sqz.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			cold := decoded.(*core.Store)
			for i := compressed; i < n; i++ {
				if _, err := cold.FoldIn(fresh.Row(i), DefaultMaxDeltas); err != nil {
					b.Fatal(err)
				}
			}
			dir := b.TempDir()
			ti, err := Open(cold, nil, filepath.Join(dir, "hot.wal"), Options{
				CompactAfter:      batch,
				RecompressGrowth:  -1,
				PersistPath:       filepath.Join(dir, "cold.sqz"),
				DisableBackground: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ti.Close()
			rows := make([][]float64, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for r := range rows {
					rows[r] = fresh.Row((i*batch + r) % 20000)
				}
				if _, err := ti.AppendBatch(context.Background(), nil, rows); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if folded, err := ti.Compact(); err != nil || folded != batch {
					b.Fatalf("Compact folded %d rows, %v", folded, err)
				}
			}
			// Readers are blocked for the fold alone; its worst case is the
			// compaction in which U or the delta arrays outgrew their backing.
			b.ReportMetric(float64(ti.Stats().MaxCompactPauseUs), "max-pause-µs")
		})
	}
}
