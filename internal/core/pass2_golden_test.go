package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

// pass2Content hashes everything pass 2 decides for given factors: the
// delta set in (row, col) order, every U row, k_max/k_opt/γ and each
// candidate's (K, Gamma, SSE). Eps is left out on purpose — it is the one
// output whose last bits follow the top-γ container's summation order.
func pass2Content(t *testing.T, s *Store) string {
	t.Helper()
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, o := range sortedOutliers(s) {
		put(uint64(o.row))
		put(uint64(o.col))
		put(math.Float64bits(o.delta))
	}
	n, _ := s.Dims()
	urow := make([]float64, s.K())
	for i := 0; i < n; i++ {
		if err := s.Base().URow(i, urow); err != nil {
			t.Fatal(err)
		}
		for _, u := range urow {
			put(math.Float64bits(u))
		}
	}
	d := s.Diagnostics()
	put(uint64(d.KMax))
	put(uint64(d.ChosenK))
	put(uint64(d.Gamma))
	for _, c := range d.Candidates {
		put(uint64(c.K))
		put(uint64(c.Gamma))
		put(math.Float64bits(c.SSE))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPass2GoldenContent pins pass 2's output for given factors to the
// hashes the heap-based pass 2 produced (computed at the commit before the
// buffer-and-select top-γ replaced the heaps): the scoring loop and the
// container may be rearranged, the retained deltas, U, the decisions and
// every SSE may not move by a bit, at any Workers value.
func TestPass2GoldenContent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were taken on amd64; other targets may fuse multiply-adds")
	}
	if testing.Short() {
		t.Skip("compresses 4000×366")
	}
	for _, tc := range []struct {
		n    int
		want string
	}{
		{2048, "49eac422c2e53eb87284cad33e97eff9d23d0816de895cd65a93a7e792ce61a3"},
		{4000, "64d47eb2329d01f807f4906fef281b1647cd8eee6e0806687fdc00df9a43d6d5"},
	} {
		src := matio.NewMem(dataset.GeneratePhone(dataset.DefaultPhoneConfig(tc.n)))
		f, err := svd.ComputeFactorsWorkers(src, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			s, err := CompressWithFactors(src, f, Options{Budget: 0.10, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := pass2Content(t, s); got != tc.want {
				t.Errorf("phone %d×366 workers=%d: content hash %s, want %s", tc.n, workers, got, tc.want)
			}
		}
	}
}
