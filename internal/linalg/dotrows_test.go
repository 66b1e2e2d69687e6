package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkDotRows is DotRows' oracle: every out[p] must carry exactly the bits
// of the Dot call it replaces, signed zeros included. The one exception is
// a NaN's payload and sign: IEEE 754 leaves open which NaN operand an
// operation propagates, and the compiler orders the operands of a
// commutative float op as it likes, so Dot's own NaN payload is not a
// property of its source. A NaN must be matched by a NaN.
func checkDotRows(t *testing.T, a, panel []float64, rows int) {
	t.Helper()
	k := len(a)
	out := make([]float64, rows)
	DotRows(a, panel, out)
	for p := range out {
		want := Dot(a, panel[p*k:(p+1)*k])
		if math.IsNaN(out[p]) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(out[p]) != math.Float64bits(want) {
			t.Fatalf("k=%d rows=%d: out[%d] = %v (%#x), Dot = %v (%#x)",
				k, rows, p, out[p], math.Float64bits(out[p]), want, math.Float64bits(want))
		}
	}
}

// edgeFloats are the values a reconstruction must not reorder around:
// signed zeros, subnormals, infinities, NaN and the ends of the normal range.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-310, -1.1e-309,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1e-300, -1e-300, 1e300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// TestDotRowsMatchesDot compares DotRows bit for bit with per-row Dot at
// every k ∈ 0…16 (so k < 4 and every tail length) and every row count
// ∈ 0…9 (so every remainder of the four-row pass), on well-scaled values,
// on magnitudes from 1e-300 to 1e300 (cancellation and overflow) and on
// panels salted with the edge values.
func TestDotRowsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	wide := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300)) }
	salted := func() float64 {
		if rng.Intn(4) == 0 {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return wide()
	}
	for _, gen := range []func() float64{rng.NormFloat64, wide, salted} {
		for k := 0; k <= 16; k++ {
			for rows := 0; rows <= 9; rows++ {
				for trial := 0; trial < 4; trial++ {
					a := make([]float64, k)
					panel := make([]float64, rows*k)
					for i := range a {
						a[i] = gen()
					}
					for i := range panel {
						panel[i] = gen()
					}
					checkDotRows(t, a, panel, rows)
				}
			}
		}
	}
}

func TestDotRowsLengthMismatchPanics(t *testing.T) {
	for _, c := range []struct{ k, panel, rows int }{{3, 5, 2}, {3, 7, 2}, {0, 1, 3}, {4, 4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d panel=%d rows=%d did not panic", c.k, c.panel, c.rows)
				}
			}()
			DotRows(make([]float64, c.k), make([]float64, c.panel), make([]float64, c.rows))
		}()
	}
}

// FuzzDotRows decodes bytes into k ≤ 16, a row count ≤ 9 and raw float64
// bit patterns — every NaN payload, subnormal and infinity reachable — and
// holds DotRows to TestDotRowsMatchesDot's oracle.
func FuzzDotRows(f *testing.F) {
	f.Add([]byte{7, 5})
	f.Add(binary.LittleEndian.AppendUint64([]byte{1, 4}, math.Float64bits(math.Inf(1))))
	f.Add(append([]byte{4, 9}, make([]byte, 8*40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, rows := int(data[0])%17, int(data[1])%10
		data = data[2:]
		next := func() float64 {
			if len(data) < 8 {
				return 1
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		a := make([]float64, k)
		panel := make([]float64, rows*k)
		for i := range a {
			a[i] = next()
		}
		for i := range panel {
			panel[i] = next()
		}
		checkDotRows(t, a, panel, rows)
	})
}

// BenchmarkDotRows projects a σ-scaled U row of k = 7 onto |C|×k column
// panels the size of a short, a typical and a full-year selection: the
// kernel against the per-row Dot loop it replaced.
func BenchmarkDotRows(b *testing.B) {
	const k = 7
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, k)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for _, cols := range []int{15, 60, 366} {
		panel := randMatrix(rng, cols, k)
		out := make([]float64, cols)
		b.Run(fmt.Sprintf("cols=%d/kernel", cols), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				DotRows(a, panel.Data(), out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cols), "ns/cell")
		})
		b.Run(fmt.Sprintf("cols=%d/dot-loop", cols), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for p := range out {
					out[p] = Dot(a, panel.Row(p))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cols), "ns/cell")
		})
	}
}
