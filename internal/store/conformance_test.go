package store_test

import (
	"bytes"
	"math"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/dct"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/vq"
	"seqstore/internal/wavelet"
)

// conformance is the integration suite every Store implementation must
// pass: consistent dimensions, Cell/Row agreement, range checking,
// bit-exact serialization, and coherent space accounting.
func conformance(t *testing.T, name string, s store.Encoder, x *linalg.Matrix) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		n, m := s.Dims()
		xn, xm := x.Dims()
		if n != xn || m != xm {
			t.Fatalf("dims (%d,%d) != data (%d,%d)", n, m, xn, xm)
		}

		// Cell/Row agreement on a sample of rows.
		for _, i := range []int{0, n / 2, n - 1} {
			row, err := s.Row(i, nil)
			if err != nil {
				t.Fatalf("Row(%d): %v", i, err)
			}
			if len(row) != m {
				t.Fatalf("Row(%d) length %d", i, len(row))
			}
			for _, j := range []int{0, m / 2, m - 1} {
				c, err := s.Cell(i, j)
				if err != nil {
					t.Fatalf("Cell(%d,%d): %v", i, j, err)
				}
				if math.Abs(c-row[j]) > 1e-12*math.Max(math.Abs(c), 1) {
					t.Errorf("Cell(%d,%d)=%v but Row gives %v", i, j, c, row[j])
				}
			}
		}

		// Range checking.
		if _, err := s.Cell(-1, 0); err == nil {
			t.Error("negative row accepted")
		}
		if _, err := s.Cell(0, m); err == nil {
			t.Error("column == m accepted")
		}
		if _, err := s.Cell(n, 0); err == nil {
			t.Error("row == n accepted")
		}

		// Space accounting.
		if s.StoredNumbers() < 0 {
			t.Error("negative StoredNumbers")
		}
		if r := store.SpaceRatio(s); r < 0 || r > 1.5 {
			t.Errorf("implausible SpaceRatio %v", r)
		}

		// Serialization: bit-exact reconstruction across a round trip.
		var buf bytes.Buffer
		if err := store.Write(&buf, s); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, err := store.Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if got.Method() != s.Method() {
			t.Errorf("method %v != %v", got.Method(), s.Method())
		}
		if got.StoredNumbers() != s.StoredNumbers() {
			t.Errorf("StoredNumbers %d != %d", got.StoredNumbers(), s.StoredNumbers())
		}
		gn, gm := got.Dims()
		if gn != n || gm != m {
			t.Fatalf("decoded dims (%d,%d)", gn, gm)
		}
		for _, i := range []int{0, n - 1} {
			a, _ := s.Row(i, nil)
			b, err := got.Row(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("row %d col %d differs after round trip", i, j)
				}
			}
		}
	})
}

func TestAllStoresConform(t *testing.T) {
	cfg := dataset.DefaultPhoneConfig(90)
	cfg.M = 48
	x := dataset.GeneratePhone(cfg)
	mem := matio.NewMem(x)

	svdStore, err := svd.Compress(mem, 6)
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, "svd", svdStore, x)
	conformance(t, "svd-plain", core.Plain(svdStore), x)

	svddStore, err := core.Compress(mem, core.Options{Budget: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, "svdd", svddStore, x)

	svddZero, err := core.Compress(mem, core.Options{Budget: 0.25, FlagZeroRows: true})
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, "svdd-zeroflags", svddZero, x)

	dctStore, err := dct.Compress(mem, 10)
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, "dct", dctStore, x)

	clStore, err := vq.Compress(x, 12)
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, "cluster", clStore, x)

	wvStore, err := wavelet.Compress(mem, 10)
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, "wavelet", wvStore, x)
}
