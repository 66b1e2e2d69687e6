package exact

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// foldEach is the oracle for Stage: the plain per-term Sum fold of one
// row's components and upper-triangle products, a zero entry's products
// skipped.
func foldEach(acc, g []Sum, row []float64) {
	k := len(row)
	for m, x := range row {
		acc[m].Add(x)
	}
	if len(g) == 0 {
		return
	}
	for a := 0; a < k; a++ {
		if row[a] == 0 {
			continue
		}
		for b := a; b < k; b++ {
			g[a*k+b].Add(row[a] * row[b])
		}
	}
}

// stagedRun feeds rows through a Stage and through foldEach side by side,
// flushing the stage after row r when flushAt(r), and reports the first
// slot whose registers differ after the final flush (-1 if none).
func stagedRun(k int, gram bool, rows [][]float64, flushAt func(r int) bool) int {
	n := 0
	if gram {
		n = k * k
	}
	acc, g := make([]Sum, k), make([]Sum, n)
	refAcc, refG := make([]Sum, k), make([]Sum, n)
	var st Stage
	st.Reset(k + n)
	for r, row := range rows {
		st.AddMoments(acc, g, row)
		foldEach(refAcc, refG, row)
		if flushAt(r) {
			st.Flush(acc, g)
		}
	}
	st.Flush(acc, g)
	for i := range acc {
		if !acc[i].Equal(&refAcc[i]) {
			return i
		}
	}
	for i := range g {
		if !g[i].Equal(&refG[i]) {
			return k + i
		}
	}
	return -1
}

// stageValue draws one entry: mostly inside [-1, 1] (the staged path),
// sometimes tiny enough to spill past both bins, sometimes an outlier or a
// nonfinite value that sends its row down the per-term path.
func stageValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return (rng.Float64() - 0.5) * 1e-200
	case 1:
		return math.Ldexp(rng.Float64()-0.5, -rng.Intn(80))
	case 2:
		return math.Copysign(1, rng.Float64()-0.5)
	case 3:
		return 0
	default:
		return 2*rng.Float64() - 1
	}
}

// TestStageMatchesPerTermFold: across the flush interval (1 023, 1 024 and
// 1 025 rows and beyond), with and without the Gram, with and without
// extra flushes, with rows that spill and rows that fall back, the flushed
// registers equal the per-term fold's.
func TestStageMatchesPerTermFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 7, 16} {
		for _, n := range []int{1, 1023, 1024, 1025, 3000} {
			for _, outliers := range []bool{false, true} {
				rows := make([][]float64, n)
				for r := range rows {
					rows[r] = make([]float64, k)
					for m := range rows[r] {
						rows[r][m] = stageValue(rng)
					}
					if outliers && r%97 == 0 {
						rows[r][rng.Intn(k)] = []float64{1.5, -3e10, math.Inf(1), math.NaN(), math.MaxFloat64}[r%5]
					}
				}
				for _, gram := range []bool{false, true} {
					never := func(int) bool { return false }
					some := func(r int) bool { return r%311 == 17 }
					for name, flushAt := range map[string]func(int) bool{"interval-only": never, "extra": some} {
						if slot := stagedRun(k, gram, rows, flushAt); slot >= 0 {
							t.Fatalf("k=%d n=%d outliers=%v gram=%v %s: slot %d differs from the per-term fold",
								k, n, outliers, gram, name, slot)
						}
					}
				}
			}
		}
	}
}

// TestStageStagesAndFlushes pins that in-range rows really go through the
// bins (so the equality above tests the staged arithmetic, not only the
// fallback), that the stage flushes itself every stageRows rows, and that
// an out-of-range row leaves the stage alone.
func TestStageStagesAndFlushes(t *testing.T) {
	const k = 3
	acc, g := make([]Sum, k), make([]Sum, k*k)
	var st Stage
	st.Reset(k + k*k)
	row := []float64{0.25, -0.5, 0.125}
	for r := 1; r < stageRows; r++ {
		st.AddMoments(acc, g, row)
		if st.rows != r {
			t.Fatalf("after %d in-range rows the stage holds %d", r, st.rows)
		}
	}
	for i := range acc {
		if !acc[i].IsZero() {
			t.Fatalf("acc[%d] touched before the flush interval", i)
		}
	}
	st.AddMoments(acc, g, row)
	if st.rows != 0 || acc[0].Value() != 0.25*stageRows || g[0*k+1].Value() != -0.125*stageRows {
		t.Fatalf("no flush at %d rows: rows %d, acc[0] %v, g[0][1] %v", stageRows, st.rows, acc[0].Value(), g[1].Value())
	}
	st.AddMoments(acc, g, []float64{2, 0, 0})
	if st.rows != 0 || acc[0].Value() != 0.25*stageRows+2 {
		t.Fatalf("an out-of-range row was staged: rows %d, acc[0] %v", st.rows, acc[0].Value())
	}
}

// FuzzStagedMoments feeds raw float64 bit patterns as rows of k ∈ 1…16 —
// NaN payloads, ±Inf, subnormals, −0, |u| > 1 and values near 1e-200 that
// spill past both bins — cycled to up to 2 200 rows, so the stage crosses
// its 1 024-row flush, with extra flushes at fuzzed points. The flushed
// registers must equal the plain per-term Sum fold bit for bit.
//
// Each value is 9 bytes: a tag, then 8 bytes of bits. Tag mod 4 picks raw
// bits, the bits as a uniform in [-1, 1), the same scaled by 1e-200, or
// the bits with the exponent clamped below 2^1 (mostly in-range, every
// mantissa pattern).
func FuzzStagedMoments(f *testing.F) {
	enc := func(tag byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{tag}, math.Float64bits(v))
	}
	var seed []byte
	for _, v := range []float64{0.5, -0.25, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-200, 1, -1, 0.1} {
		seed = append(seed, enc(0, v)...)
	}
	f.Add(byte(7), true, uint16(1025), uint16(0), seed)
	f.Add(byte(3), true, uint16(2200), uint16(300), append(seed, enc(0, math.NaN())...))
	f.Add(byte(15), false, uint16(1024), uint16(1), append(seed, enc(0, math.Inf(-1))...))
	f.Add(byte(0), true, uint16(1023), uint16(17), append(enc(1, 0), enc(2, 0)...))
	f.Add(byte(4), true, uint16(40), uint16(5), append(seed, enc(0, 3.5)...))
	f.Fuzz(func(t *testing.T, kb byte, gram bool, total, flushEvery uint16, data []byte) {
		k := 1 + int(kb%16)
		var vals []float64
		for ; len(data) >= 9; data = data[9:] {
			bits := binary.LittleEndian.Uint64(data[1:9])
			u := float64(bits>>11)/(1<<53)*2 - 1
			switch data[0] % 4 {
			case 0:
				vals = append(vals, math.Float64frombits(bits))
			case 1:
				vals = append(vals, u)
			case 2:
				vals = append(vals, u*1e-200)
			default:
				if e := bits >> 52 & 0x7ff; e > 1023 {
					bits = bits&^(0x7ff<<52) | (e%1024)<<52
				}
				vals = append(vals, math.Float64frombits(bits))
			}
		}
		if len(vals) < k {
			return
		}
		pattern := make([][]float64, len(vals)/k)
		for i := range pattern {
			pattern[i] = vals[i*k : (i+1)*k]
		}
		rows := make([][]float64, int(total)%2201)
		for r := range rows {
			rows[r] = pattern[r%len(pattern)]
		}
		flushAt := func(r int) bool { return flushEvery != 0 && r%int(flushEvery) == int(flushEvery)-1 }
		if slot := stagedRun(k, gram, rows, flushAt); slot >= 0 {
			t.Fatalf("k=%d gram=%v rows=%d flush every %d: slot %d differs from the per-term fold",
				k, gram, len(rows), flushEvery, slot)
		}
	})
}
