package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

// TestNonFiniteCellIsAnError plants one NaN, +Inf or −Inf in a phone matrix
// and requires every way into compression to refuse it with the typed error
// — never a store whose Eps, k_opt and reconstructions are garbage. Pass 2 is
// the only check CompressWithFactors runs, and it names the cell.
func TestNonFiniteCellIsAnError(t *testing.T) {
	const row, col = 137, 41
	clean := phoneSmall(300)
	f, err := svd.ComputeFactors(matio.NewMem(clean))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := clean.Clone()
		x.Set(row, col, bad)
		src := matio.NewMem(x)
		for _, compressor := range []string{svd.CompressorGram, svd.CompressorRandomized} {
			s, err := Compress(src, Options{Budget: 0.10, Compressor: compressor})
			if s != nil || !errors.Is(err, linalg.ErrNotFinite) {
				t.Errorf("Compress(%s) with a %v cell: store %v, err %v; want linalg.ErrNotFinite", compressor, bad, s != nil, err)
			}
		}
		s, err := CompressWithFactors(src, f, Options{Budget: 0.10})
		if s != nil || !errors.Is(err, linalg.ErrNotFinite) {
			t.Fatalf("CompressWithFactors with a %v cell: store %v, err %v; want linalg.ErrNotFinite", bad, s != nil, err)
		}
		if where := fmt.Sprintf("(%d, %d)", row, col); !strings.Contains(err.Error(), where) {
			t.Errorf("error %q does not name cell %s", err, where)
		}
	}
}
