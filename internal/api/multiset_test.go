package api_test

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"seqstore/internal/api"
)

// TestV1ContractMultiset: a selection is a multiset, and only its text is
// bounded. An aggregate whose rows repeat the whole axis through most of
// the body limit — some 5·10⁷ positions over the 320-row matrix — is
// answered through the store door and both proxies from its runs: the
// count is the arithmetic, the sum and the max are the single pass's
// weighted, and serving the three costs allocation in proportion to the
// body, not to the positions it lists. (The tiered door reconstructs every
// listed row, so it is not asked.)
func TestV1ContractMultiset(t *testing.T) {
	if testing.Short() {
		t.Skip("serves three 1 MB selections through three doors")
	}
	if raceEnabled {
		t.Skip("under the race detector a shard's 2.8·10⁷ positions outlast the proxy's shard timeout, and pooled buffers are dropped, so the allocation bound does not hold")
	}
	const rows, cols, width = 320, "2:9", 7
	once := fmt.Sprintf("0:%d", rows)
	reps := (maxBody - 256) / (len(once) + 1)
	spec := strings.TrimSuffix(strings.Repeat(once+",", reps), ",")
	positions := float64(reps) * rows

	value := func(t *testing.T, sh *shape, f, rowSpec string) float64 {
		t.Helper()
		r := sh.do(t, "POST", "/v1/aggregate", fmt.Sprintf(`{"f":%q,"rows":%q,"cols":%q}`, f, rowSpec, cols), nil)
		var a api.AggregateResponse
		if r.status != 200 || json.Unmarshal(r.raw, &a) != nil {
			t.Fatalf("%s %s: status %d: %.200s", sh.name, f, r.status, r.raw)
		}
		if a.Rows != int(positions) && rowSpec == spec {
			t.Errorf("%s %s: echoed %d rows, want %.0f", sh.name, f, a.Rows, positions)
		}
		return api.NumValue(a.Value, a.Nonfinite)
	}
	for _, sh := range phoneShapesOf(t, rows) {
		if sh.name == "tiered" {
			continue
		}
		sum, max := value(t, sh, "sum", once), value(t, sh, "max", once)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		count := value(t, sh, "count", spec)
		gotSum := value(t, sh, "sum", spec)
		gotMax := value(t, sh, "max", spec)
		runtime.ReadMemStats(&after)

		if want := positions * width; count != want {
			t.Errorf("%s: count %v, want %v", sh.name, count, want)
		}
		if want := float64(reps) * sum; math.Abs(gotSum-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: sum %v, %d × the single pass's %v = %v", sh.name, gotSum, reps, sum, want)
		}
		if gotMax != max {
			t.Errorf("%s: max %v, the single pass's %v", sh.name, gotMax, max)
		}
		// Listing the positions would take 8 bytes each (≈ 450 MB) at
		// every door that expanded them; the text, its runs and their
		// copies through the hop stay within a small multiple of the body.
		grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(3*64*len(spec))
		t.Logf("%s: %d MB allocated for three %d-byte selections", sh.name, grew>>20, len(spec))
		if grew > bound {
			t.Errorf("%s: serving three %d-byte selections allocated %d MB, bound %d MB (the positions alone are %.0f MB)",
				sh.name, len(spec), grew>>20, bound>>20, 8*positions/(1<<20))
		}
	}
}

// maxBody is the aggregate body limit the front door enforces.
const maxBody = 1 << 20
