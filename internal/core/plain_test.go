package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// TestPlainSerializationRoundTrip: a plain-SVD store written to a .sqz reads
// back as a Plain store of method SVD, cell for cell bit-identical, at the
// same cost and with the same bytes on a second write.
func TestPlainSerializationRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := linalg.NewMatrix(20, 10)
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			x.Set(i, j, r.NormFloat64())
		}
	}
	s, err := svd.Compress(matio.NewMem(x), 4)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := store.Write(&want, s); err != nil {
		t.Fatal(err)
	}
	got, err := store.Read(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gs, ok := got.(*Store)
	if !ok {
		t.Fatalf("decoded type %T, want a Plain *Store", got)
	}
	if gs.Method() != store.MethodSVD || gs.NumOutliers() != 0 || len(gs.ZeroRows()) != 0 {
		t.Errorf("decoded method %v with %d deltas and zero rows %v, want svd with none",
			gs.Method(), gs.NumOutliers(), gs.ZeroRows())
	}
	if gr, gc := gs.Dims(); gr != 20 || gc != 10 {
		t.Fatalf("dims = (%d,%d)", gr, gc)
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			a, _ := s.Cell(i, j)
			b, err := gs.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("cell (%d,%d) not bit-identical after round trip", i, j)
			}
		}
	}
	if gs.StoredNumbers() != s.StoredNumbers() {
		t.Error("StoredNumbers changed across serialization")
	}
	var again bytes.Buffer
	if err := store.Write(&again, gs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Error("a Plain store writes different bytes than the svd store it wraps")
	}
}

func TestPlainDecodeRejectsCorrupt(t *testing.T) {
	s, _ := svd.Compress(matio.NewMem(dataset.Toy()), 2)
	var buf bytes.Buffer
	if err := store.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := store.Read(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestPlainKeepsItsMethod: slicing and fold-in keep a Plain store plain —
// method SVD, the base's cost, no deltas however many fold-in is offered —
// and it answers exactly what its base answers.
func TestPlainKeepsItsMethod(t *testing.T) {
	x := phoneSmall(40)
	base, err := svd.Compress(matio.NewMem(x), 5)
	if err != nil {
		t.Fatal(err)
	}
	p := Plain(base)
	if p.Method() != store.MethodSVD || p.StoredNumbers() != base.StoredNumbers() || p.K() != base.K() {
		t.Fatalf("Plain: method %v, %d numbers, k %d; want svd, %d, %d",
			p.Method(), p.StoredNumbers(), p.K(), base.StoredNumbers(), base.K())
	}
	_, m := p.Dims()
	for i := 0; i < 40; i++ {
		want, err := base.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Row(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m; j++ {
			c, err := p.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) || math.Float64bits(c) != math.Float64bits(want[j]) {
				t.Fatalf("(%d,%d): row %v, cell %v, base %v", i, j, got[j], c, want[j])
			}
		}
	}

	sl, err := p.SliceRows(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Method() != store.MethodSVD {
		t.Errorf("slice method %v, want svd", sl.Method())
	}

	spike := append([]float64(nil), x.Row(3)...)
	spike[7] = 1e6
	idx, err := p.FoldIn(spike, 50)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 40 || p.NumOutliers() != 0 || p.Method() != store.MethodSVD {
		t.Errorf("fold-in: row %d, %d deltas, method %v; want 40, 0, svd", idx, p.NumOutliers(), p.Method())
	}
	if p.StoredNumbers() != base.StoredNumbers() {
		t.Errorf("fold-in charged %d numbers, base %d", p.StoredNumbers(), base.StoredNumbers())
	}
	if _, err := p.Row(40, nil); err != nil {
		t.Fatalf("folded row unreadable: %v", err)
	}
}
