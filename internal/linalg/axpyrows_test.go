package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkAxpyRows is AxpyRows' oracle: y must come out with exactly the bits
// of Axpy applied row by row, signed zeros included. A NaN must be matched by
// a NaN, its payload and sign free, for the reason checkDotRows gives.
func checkAxpyRows(t *testing.T, alpha []float64, x [][]float64, y []float64) {
	t.Helper()
	want := append([]float64(nil), y...)
	for r := range x {
		Axpy(alpha[r], x[r], want)
	}
	got := append([]float64(nil), y...)
	AxpyRows(alpha, x, got)
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d rows=%d: y[%d] = %v (%#x), sequential Axpy = %v (%#x)",
				len(y), len(x), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestAxpyRowsMatchesAxpy compares AxpyRows bit for bit with sequential Axpy
// calls at every length 0…17 and every row count 0…4, on well-scaled values,
// on magnitudes from 1e-300 to 1e300 (cancellation and overflow) and on
// operands salted with TestDotRowsMatchesDot's edge values — y, coefficients
// and rows alike, so a −0 accumulator, a zero coefficient against an infinity
// and NaN propagation all occur.
func TestAxpyRowsMatchesAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	wide := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300)) }
	salted := func() float64 {
		if rng.Intn(4) == 0 {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return wide()
	}
	for _, gen := range []func() float64{rng.NormFloat64, wide, salted} {
		for n := 0; n <= 17; n++ {
			for rows := 0; rows <= 4; rows++ {
				for trial := 0; trial < 8; trial++ {
					alpha := make([]float64, rows)
					x := make([][]float64, rows)
					for r := range x {
						alpha[r] = gen()
						x[r] = make([]float64, n)
						for i := range x[r] {
							x[r][i] = gen()
						}
					}
					y := make([]float64, n)
					for i := range y {
						y[i] = gen()
					}
					checkAxpyRows(t, alpha, x, y)
				}
			}
		}
	}
}

func TestAxpyRowsMismatchPanics(t *testing.T) {
	row := func(n int) []float64 { return make([]float64, n) }
	for name, c := range map[string]struct {
		alpha []float64
		x     [][]float64
		y     []float64
	}{
		"alpha vs rows": {row(2), [][]float64{row(3)}, row(3)},
		"five rows":     {row(5), [][]float64{row(1), row(1), row(1), row(1), row(1)}, row(1)},
		"short row":     {row(2), [][]float64{row(3), row(2)}, row(3)},
		"long row":      {row(4), [][]float64{row(3), row(3), row(3), row(4)}, row(3)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			AxpyRows(c.alpha, c.x, c.y)
		}()
	}
}

// FuzzAxpyRows decodes bytes into a length ≤ 17, a row count ≤ 4 and raw
// float64 bit patterns for y, the coefficients and the rows — every NaN
// payload, subnormal and infinity reachable — and holds AxpyRows to
// TestAxpyRowsMatchesAxpy's oracle.
func FuzzAxpyRows(f *testing.F) {
	f.Add([]byte{7, 4})
	f.Add(binary.LittleEndian.AppendUint64([]byte{1, 2}, math.Float64bits(math.Copysign(0, -1))))
	f.Add(append([]byte{5, 3}, make([]byte, 8*24)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, rows := int(data[0])%18, int(data[1])%5
		data = data[2:]
		next := func() float64 {
			if len(data) < 8 {
				return 1
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = next()
		}
		alpha := make([]float64, rows)
		x := make([][]float64, rows)
		for r := range x {
			alpha[r] = next()
			x[r] = make([]float64, n)
			for i := range x[r] {
				x[r][i] = next()
			}
		}
		checkAxpyRows(t, alpha, x, y)
	})
}

// BenchmarkAxpyRows applies four rank-1 updates to one y the length of a
// year's row: the kernel against the four Axpy calls it replaces.
func BenchmarkAxpyRows(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{64, 366} {
		alpha := make([]float64, 4)
		x := make([][]float64, 4)
		for r := range x {
			alpha[r] = rng.NormFloat64()
			x[r] = randMatrix(rng, 1, n).Data()
		}
		y := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d/kernel", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AxpyRows(alpha, x, y)
			}
		})
		b.Run(fmt.Sprintf("n=%d/axpy-loop", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := range x {
					Axpy(alpha[r], x[r], y)
				}
			}
		})
	}
}
