package store_test

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/store"
)

// loadGoldenRows reads the reference reconstruction for a golden container:
// every row of the matrix as decoded when the fixture was frozen.
func loadGoldenRows(t *testing.T, name string) [][]float64 {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name + ".rows.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// checkRows asserts s reconstructs bit-for-bit the same values as the
// frozen reference.
func checkRows(t *testing.T, s store.Store, want [][]float64) {
	t.Helper()
	r, c := s.Dims()
	if r != len(want) || c != len(want[0]) {
		t.Fatalf("dims = (%d,%d), want (%d,%d)", r, c, len(want), len(want[0]))
	}
	dst := make([]float64, c)
	for i := range want {
		row, err := s.Row(i, dst)
		if err != nil {
			t.Fatalf("Row(%d): %v", i, err)
		}
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("v(%d,%d) = %v, want %v (not bit-identical)", i, j, row[j], want[i][j])
			}
		}
	}
}

// TestGoldenV1Containers loads the v1 .sqz fixtures frozen before the v2
// container work and proves they still decode to bit-identical values, with
// labels preserved. The fixtures are checked-in binaries with no generator.
func TestGoldenV1Containers(t *testing.T) {
	t.Run("svd-unlabeled", func(t *testing.T) {
		f, err := os.Open("testdata/golden_v1_svd.sqz")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s, labels, err := store.ReadLabeled(f)
		if err != nil {
			t.Fatal(err)
		}
		if s.Method() != store.MethodSVD {
			t.Errorf("method = %v", s.Method())
		}
		if labels != nil {
			t.Errorf("unexpected labels: %+v", labels)
		}
		checkRows(t, s, loadGoldenRows(t, "golden_v1_svd"))
	})

	t.Run("svdd-labeled", func(t *testing.T) {
		f, err := os.Open("testdata/golden_v1_svdd.sqz")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s, labels, err := store.ReadLabeled(f)
		if err != nil {
			t.Fatal(err)
		}
		if s.Method() != store.MethodSVDD {
			t.Errorf("method = %v", s.Method())
		}
		if labels == nil || len(labels.Rows) != 30 || len(labels.Cols) != 16 {
			t.Fatalf("labels = %+v", labels)
		}
		if labels.Rows[0] != "cust-A0" || labels.Rows[1] != "cust-B0" {
			t.Errorf("row labels = %v...", labels.Rows[:2])
		}
		if labels.Cols[0] != "day-a" || labels.Cols[1] != "day-b" {
			t.Errorf("col labels = %v...", labels.Cols[:2])
		}
		checkRows(t, s, loadGoldenRows(t, "golden_v1_svdd"))
	})
}

// TestGoldenV2LegacyFilters loads a v2 SVDD fixture frozen while the writer
// still stored a membership filter over the deltas and flagged one over the
// zero rows. The reader skips the filter bytes: every row, and every cell of
// a flagged zero row, is bit-identical to the reference taken at freezing
// time, and the zero rows cost no U access.
func TestGoldenV2LegacyFilters(t *testing.T) {
	s, labels, err := store.LoadLabeled("testdata/golden_v2_svdd_bloom.sqz")
	if err != nil {
		t.Fatal(err)
	}
	if labels != nil {
		t.Errorf("unexpected labels: %+v", labels)
	}
	c, ok := s.(*core.Store)
	if !ok {
		t.Fatalf("decoded a %T, want an SVDD store", s)
	}
	want := loadGoldenRows(t, "golden_v2_svdd_bloom")
	checkRows(t, s, want)
	zeros := c.ZeroRows()
	if !slices.Equal(zeros, []int32{0, 9, 30, 47}) || c.NumOutliers() != 71 {
		t.Fatalf("zero rows %v, %d deltas; frozen with [0 9 30 47] and 71", zeros, c.NumOutliers())
	}
	reads := c.Base().UStats().RowReads()
	for _, i := range zeros {
		for j, w := range want[i] {
			if v, err := c.Cell(int(i), j); err != nil || math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("zero-row cell (%d,%d) = %v, %v; want %v", i, j, v, err, w)
			}
		}
	}
	if got := c.Base().UStats().RowReads() - reads; got != 0 {
		t.Errorf("zero-row cells cost %d U reads, want 0", got)
	}
}

// TestGoldenV1UpgradeRoundTrip re-saves a v1 fixture through the current
// writer and proves the result is a v2 container that reloads with
// bit-identical values and labels: upgrading a legacy file is lossless.
func TestGoldenV1UpgradeRoundTrip(t *testing.T) {
	f, err := os.Open("testdata/golden_v1_svdd.sqz")
	if err != nil {
		t.Fatal(err)
	}
	s, labels, err := store.ReadLabeled(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	enc, ok := s.(store.Encoder)
	if !ok {
		t.Fatal("decoded store is not an Encoder")
	}

	path := filepath.Join(t.TempDir(), "upgraded.sqz")
	if err := store.SaveLabeled(path, enc, labels); err != nil {
		t.Fatal(err)
	}

	// The rewritten file must be a v2 container.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != 2 {
		t.Fatalf("re-saved container version = %d, want 2", v)
	}

	s2, labels2, err := store.LoadLabeled(path)
	if err != nil {
		t.Fatal(err)
	}
	if labels2 == nil || labels2.Rows[0] != labels.Rows[0] || labels2.Cols[15] != labels.Cols[15] {
		t.Errorf("labels changed across upgrade: %+v", labels2)
	}
	checkRows(t, s2, loadGoldenRows(t, "golden_v1_svdd"))
}
