package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkDotBounds is DotBounds' oracle for one v inside [lo, hi]: a finite
// upper bound is ≥ Dot(a, v) and a finite lower bound ≤ it — both
// comparisons false on a NaN, so a finite bound also rules a NaN Dot out —
// and a NaN in a, hi or lo makes both bounds NaN.
func checkDotBounds(t *testing.T, a, hi, lo, v []float64) {
	t.Helper()
	upper, lower := DotBounds(a, hi, lo)
	d := Dot(a, v)
	if finite(upper) && !(d <= upper) {
		t.Fatalf("a=%v hi=%v lo=%v v=%v: Dot = %v (%#x) above upper %v (%#x)",
			a, hi, lo, v, d, math.Float64bits(d), upper, math.Float64bits(upper))
	}
	if finite(lower) && !(d >= lower) {
		t.Fatalf("a=%v hi=%v lo=%v v=%v: Dot = %v (%#x) below lower %v (%#x)",
			a, hi, lo, v, d, math.Float64bits(d), lower, math.Float64bits(lower))
	}
	for _, s := range [][]float64{a, hi, lo} {
		for _, x := range s {
			if math.IsNaN(x) && !(math.IsNaN(upper) && math.IsNaN(lower)) {
				t.Fatalf("a=%v hi=%v lo=%v: NaN input, bounds %v %v", a, hi, lo, upper, lower)
			}
		}
	}
}

// checkCorners holds the bounds to the corners of the box that attain them.
// With v[i] = hi[i] where a[i] ≥ 0 and lo[i] elsewhere, every product of
// Dot(a, v) is the term upper adds, summed in the same order, so a finite
// upper equals it — the bound has no slack, and a summation order other
// than Dot's shows here — and the opposite corner gives lower.
func checkCorners(t *testing.T, a, hi, lo []float64) {
	t.Helper()
	upper, lower := DotBounds(a, hi, lo)
	up, down := make([]float64, len(a)), make([]float64, len(a))
	for i, x := range a {
		up[i], down[i] = hi[i], lo[i]
		if x < 0 {
			up[i], down[i] = lo[i], hi[i]
		}
	}
	if d := Dot(a, up); finite(upper) && d != upper {
		t.Fatalf("a=%v hi=%v lo=%v: upper %v, Dot at its corner %v", a, hi, lo, upper, d)
	}
	if d := Dot(a, down); finite(lower) && d != lower {
		t.Fatalf("a=%v hi=%v lo=%v: lower %v, Dot at its corner %v", a, hi, lo, lower, d)
	}
}

// inside returns a point of [lo, hi] picked by frac: an end, a signed zero
// when the interval holds 0, or an interior point (clamped, since hi−lo may
// overflow).
func inside(lo, hi float64, pick int, frac float64) float64 {
	switch pick % 5 {
	case 0:
		return lo
	case 1:
		return hi
	case 2, 3:
		if lo <= 0 && 0 <= hi {
			if pick%5 == 2 {
				return 0
			}
			return math.Copysign(0, -1)
		}
	}
	m := lo + (hi-lo)*frac
	if !(m >= lo && m <= hi) {
		return lo
	}
	return m
}

// TestDotBoundsEncloseDot draws k ∈ 0…16 (every tail length and k < 4), a,
// per-dimension intervals [lo, hi] and points v inside them — ends, ±0,
// interior points — from well-scaled values, magnitudes from 1e-300 to
// 1e300 (subnormal products, products that overflow) and the edge values,
// and holds DotBounds to checkDotBounds' and checkCorners' oracles.
func TestDotBoundsEncloseDot(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	wide := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300)) }
	salted := func() float64 {
		if rng.Intn(4) == 0 {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return wide()
	}
	for _, gen := range []func() float64{rng.NormFloat64, wide, salted} {
		for k := 0; k <= 16; k++ {
			for trial := 0; trial < 60; trial++ {
				a, hi, lo := make([]float64, k), make([]float64, k), make([]float64, k)
				for i := range a {
					a[i] = gen()
					x, y := gen(), gen()
					lo[i], hi[i] = min(x, y), max(x, y)
				}
				checkCorners(t, a, hi, lo)
				for draw := 0; draw < 8; draw++ {
					v := make([]float64, k)
					for i := range v {
						v[i] = inside(lo[i], hi[i], rng.Intn(5), rng.Float64())
					}
					checkDotBounds(t, a, hi, lo, v)
				}
			}
		}
	}
}

func TestDotBoundsLengthMismatchPanics(t *testing.T) {
	for _, c := range []struct{ a, hi, lo int }{{3, 2, 3}, {3, 3, 4}, {0, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lengths %d/%d/%d did not panic", c.a, c.hi, c.lo)
				}
			}()
			DotBounds(make([]float64, c.a), make([]float64, c.hi), make([]float64, c.lo))
		}()
	}
}

// FuzzDotBounds decodes bytes into k ≤ 16 and, per dimension, raw float64
// bit patterns for a and the two interval ends plus a byte choosing v inside
// the interval — every NaN payload, subnormal and infinity reachable — and
// holds DotBounds to checkDotBounds' and checkCorners' oracles.
func FuzzDotBounds(f *testing.F) {
	f.Add([]byte{7})
	f.Add(binary.LittleEndian.AppendUint64([]byte{1}, math.Float64bits(math.Inf(1))))
	f.Add(append([]byte{5}, make([]byte, 25*5)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := int(data[0]) % 17
		data = data[1:]
		next := func() float64 {
			if len(data) < 8 {
				return 1
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		a, hi, lo, v := make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)
		for i := range a {
			a[i] = next()
			x, y := next(), next()
			lo[i], hi[i] = x, y
			if y < x {
				lo[i], hi[i] = y, x
			}
			pick := 0
			if len(data) > 0 {
				pick, data = int(data[0]), data[1:]
			}
			v[i] = inside(lo[i], hi[i], pick, float64(pick)/255)
		}
		checkDotBounds(t, a, hi, lo, v)
		checkCorners(t, a, hi, lo)
	})
}
