package store

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadLabeled feeds arbitrary bytes to the .sqz container decoder. The
// contract under fuzz: never panic and never allocate unboundedly from a
// hostile length field — every malformed input must fail with an error.
// Seeds cover a labeled v2 container, the frozen golden fixtures,
// truncations, and junk.
func FuzzReadLabeled(f *testing.F) {
	fake := &fakeStore{rows: 3, cols: 4, fill: 1.25}
	labels := &Labels{
		Rows: []string{"r0", "r1", "r2"},
		Cols: []string{"c0", "c1", "c2", "c3"},
	}
	var buf bytes.Buffer
	if err := WriteLabeled(&buf, fake, labels); err != nil {
		f.Fatal(err)
	}
	v2 := buf.Bytes()
	f.Add(v2)
	f.Add(v2[:containerHeaderSize])
	f.Add(v2[:len(v2)/2])
	for _, name := range []string{"golden_v1_svd.sqz", "golden_v1_svdd.sqz", "golden_v2_svdd_bloom.sqz"} {
		if g, err := os.ReadFile("testdata/" + name); err == nil {
			f.Add(g)
			f.Add(g[:len(g)-5])
		}
	}
	f.Add([]byte("SEQSTORE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, lbl, err := ReadLabeled(bytes.NewReader(data))
		if err != nil {
			return // rejected: the expected outcome for most inputs
		}
		rows, cols := s.Dims()
		if lbl != nil {
			// ReadLabeled validates label counts against dims on success.
			if lbl.Rows != nil && len(lbl.Rows) != rows {
				t.Fatalf("accepted container with %d row labels for %d rows", len(lbl.Rows), rows)
			}
			if lbl.Cols != nil && len(lbl.Cols) != cols {
				t.Fatalf("accepted container with %d col labels for %d cols", len(lbl.Cols), cols)
			}
		}
		if rows > 0 && cols > 0 && int64(rows)*int64(cols) <= 1<<20 {
			_, _ = s.Cell(0, 0)
			_, _ = s.Row(rows-1, nil)
		}
		_ = s.StoredNumbers()
	})
}
