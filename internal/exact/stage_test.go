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
// slot whose registers differ after the final flush (-1 if none). When
// block is not nil, every aligned BlockRows rows with block(b) set go in
// as their Blocks entry through AddBlock instead, where the index kept
// one; used counts those blocks.
func stagedRun(k int, gram bool, rows [][]float64, flushAt func(r int) bool, block func(b int) bool) (slot, used int) {
	n := 0
	if gram {
		n = k * k
	}
	acc, g := make([]Sum, k), make([]Sum, n)
	refAcc, refG := make([]Sum, k), make([]Sum, n)
	var idx Blocks
	if block != nil {
		flat := make([]float64, 0, len(rows)/BlockRows*BlockRows*k)
		for _, row := range rows[:len(rows)/BlockRows*BlockRows] {
			flat = append(flat, row...)
		}
		idx = NewBlocks(k, len(rows)/BlockRows)
		idx.Append(flat)
	}
	var st Stage
	st.Reset(k, gram)
	for r := 0; r < len(rows); r++ {
		if b := r / BlockRows; r%BlockRows == 0 && block != nil && block(b) {
			if e, ok := idx.Block(b); ok {
				st.AddBlock(acc, g, e)
				for _, row := range rows[r : r+BlockRows] {
					foldEach(refAcc, refG, row)
				}
				used++
				r += BlockRows - 1
				if flushAt(r) {
					st.Flush(acc, g)
				}
				continue
			}
		}
		st.AddMoments(acc, g, rows[r])
		foldEach(refAcc, refG, rows[r])
		if flushAt(r) {
			st.Flush(acc, g)
		}
	}
	st.Flush(acc, g)
	for i := range acc {
		if !acc[i].Equal(&refAcc[i]) {
			return i, used
		}
	}
	for i := range g {
		if !g[i].Equal(&refG[i]) {
			return k + i, used
		}
	}
	return -1, used
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

// everyOther takes blocks 0, 2, 3, 5, 6, … as Blocks entries, so block
// adds and row adds interleave across the flush.
func everyOther(b int) bool { return b%3 != 1 }

// TestStageMatchesPerTermFold: across the flush interval (1 023, 1 024 and
// 1 025 rows and beyond), with and without the Gram, with and without
// extra flushes, with rows that spill and rows that fall back, row by row
// and with block entries in between, the flushed registers equal the
// per-term fold's.
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
						for bname, block := range map[string]func(int) bool{"rows": nil, "blocks": everyOther} {
							if slot, _ := stagedRun(k, gram, rows, flushAt, block); slot >= 0 {
								t.Fatalf("k=%d n=%d outliers=%v gram=%v %s %s: slot %d differs from the per-term fold",
									k, n, outliers, gram, name, bname, slot)
							}
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
	st.Reset(k, true)
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
// its 1 024-row flush, with extra flushes at fuzzed points, and with the
// aligned 64-row blocks that blockMask selects (bit b mod 64) added as
// their Blocks entry in between the rows added one by one. The flushed
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
	f.Add(byte(7), true, uint16(1025), uint16(0), uint64(0), seed)
	f.Add(byte(3), true, uint16(2200), uint16(300), ^uint64(0), append(seed, enc(0, math.NaN())...))
	f.Add(byte(15), false, uint16(1024), uint16(1), uint64(0x5555), append(seed, enc(0, math.Inf(-1))...))
	f.Add(byte(0), true, uint16(1023), uint16(17), uint64(0xf0f0), append(enc(1, 0), enc(2, 0)...))
	f.Add(byte(4), true, uint16(40), uint16(5), uint64(1), append(seed, enc(0, 3.5)...))
	f.Add(byte(6), true, uint16(2200), uint16(700), uint64(0xdeadbeef), append(enc(1, 0.3), enc(3, 0.7)...))
	f.Fuzz(func(t *testing.T, kb byte, gram bool, total, flushEvery uint16, blockMask uint64, data []byte) {
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
		block := func(b int) bool { return blockMask>>(b%64)&1 != 0 }
		if slot, used := stagedRun(k, gram, rows, flushAt, block); slot >= 0 {
			t.Fatalf("k=%d gram=%v rows=%d flush every %d, %d blocks: slot %d differs from the per-term fold",
				k, gram, len(rows), flushEvery, used, slot)
		}
	})
}

// TestBlocksIndexAndMark pins that an in-range block is indexed and added
// whole (so the equalities above test AddBlock, not only the rows), that a
// block with terms below the second bin's grid keeps their sums as spills,
// that a block with an entry outside [-1, 1], or with spills no float64
// holds, is marked, and that a block counts BlockRows rows toward the
// flush.
func TestBlocksIndexAndMark(t *testing.T) {
	const k = 3
	rows := make([]float64, 4*BlockRows*k)
	for i := range rows {
		rows[i] = 0.25
	}
	rows[BlockRows*k+4] = 1.5          // block 1: out of range
	rows[2*BlockRows*k+2] = 0x1p-100   // block 2: residuals below 2^-84
	rows[3*BlockRows*k+2] = 0x1p-100   // block 3: residuals whose sum
	rows[3*BlockRows*k+k+2] = 0x1p-300 // needs more than 53 bits
	idx := NewBlocks(k, 4)
	idx.Append(rows)
	if idx.Len() != 4 {
		t.Fatalf("%d blocks indexed, want 4", idx.Len())
	}
	e, ok := idx.Block(0)
	if !ok || len(e.Regs) != 0 {
		t.Fatalf("an in-range block: indexed %v, %d spills", ok, len(e.Regs))
	}
	if e2, ok := idx.Block(2); !ok || len(e2.Regs) == 0 || e2.Regs[0] != 2 || e2.Vals[0] != 0x1p-100 {
		t.Errorf("block 2: indexed %v, spills %v %v", ok, e2.Regs, e2.Vals)
	}
	for _, b := range []int{1, 3, 4} {
		if _, ok := idx.Block(b); ok {
			t.Errorf("block %d indexed", b)
		}
	}
	acc, g := make([]Sum, k), make([]Sum, k*k)
	var st Stage
	st.Reset(k, true)
	for r := 0; r < stageRows/BlockRows-1; r++ {
		st.AddBlock(acc, g, e)
	}
	if st.rows != stageRows-BlockRows || !acc[0].IsZero() {
		t.Fatalf("after %d blocks: %d rows staged, acc[0] %v", stageRows/BlockRows-1, st.rows, acc[0].Value())
	}
	st.AddMoments(acc, g, rows[:k])
	st.AddBlock(acc, g, e) // would pass stageRows: flushes first
	if st.rows != BlockRows || acc[0].Value() != 0.25*(stageRows-BlockRows+1) {
		t.Fatalf("no flush ahead of the block: %d rows staged, acc[0] %v", st.rows, acc[0].Value())
	}
	st.Flush(acc, g)
	if want := 0.25 * (stageRows + 1); acc[0].Value() != want || g[0*k+2].Value() != 0.0625*(stageRows+1) {
		t.Fatalf("acc[0] %v, g[0][2] %v; want %v, %v", acc[0].Value(), g[2].Value(), want, 0.0625*(stageRows+1))
	}
}

// scaledRun adds terms to one Sum through a Scaled stage at bound and to
// another one by one, and reports whether the registers agree.
func scaledRun(bound float64, terms []float64) bool {
	var got, want Sum
	var st Scaled
	st.Reset(bound)
	for _, x := range terms {
		st.Add(&got, x)
		want.Add(x)
	}
	st.Flush(&got)
	return got.Equal(&want)
}

// TestScaledMatchesPerTermFold: terms around and far beyond the bound,
// tiny, subnormal and nonfinite, across the flush interval, at bounds from
// below 1 to past the largest scale, fold to the per-term register.
func TestScaledMatchesPerTermFold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, bound := range []float64{0, 0.3, 1, 47.5, 3e6, 0x1p900, 0x1p1010, math.Inf(1), math.NaN()} {
		for _, n := range []int{1, 1023, 1024, 1025, 3000} {
			terms := make([]float64, n)
			for i := range terms {
				switch rng.Intn(12) {
				case 0:
					terms[i] = math.Ldexp(rng.Float64()-0.5, -1074+rng.Intn(60))
				case 1:
					terms[i] = (rng.Float64() - 0.5) * 1e300
				case 2:
					terms[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}[rng.Intn(5)]
				case 3:
					terms[i] = math.Ldexp(rng.Float64()-0.5, -rng.Intn(120))
				default:
					terms[i] = (2*rng.Float64() - 1) * max(bound, 1)
				}
			}
			if !scaledRun(bound, terms) {
				t.Fatalf("bound %v, %d terms: the staged register differs from the per-term fold", bound, n)
			}
		}
	}
	var st Scaled
	st.Reset(47.5)
	var sum Sum
	st.Add(&sum, -31.25)
	if st.terms != 1 || st.scale != 64 || !sum.IsZero() {
		t.Fatalf("an in-range term was not staged: terms %d, scale %v", st.terms, st.scale)
	}
}

// FuzzScaledTerms feeds raw float64 bit patterns, and the same bits as
// values inside the bound or scaled far below it, through a Scaled stage
// at a fuzzed bound, cycled to up to 3 000 terms so the stage crosses its
// flush. The register must equal the per-term Sum fold bit for bit.
func FuzzScaledTerms(f *testing.F) {
	enc := func(tag byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{tag}, math.Float64bits(v))
	}
	f.Add(47.5, uint16(1025), append(enc(0, 31.25), enc(1, 0.5)...))
	f.Add(3e6, uint16(3000), append(enc(0, math.NaN()), enc(2, 0.1)...))
	f.Add(0.0, uint16(10), append(enc(0, math.SmallestNonzeroFloat64), enc(0, 2)...))
	f.Add(math.Inf(1), uint16(1024), enc(1, -0.75))
	f.Fuzz(func(t *testing.T, bound float64, total uint16, data []byte) {
		var vals []float64
		for ; len(data) >= 9; data = data[9:] {
			bits := binary.LittleEndian.Uint64(data[1:9])
			u := float64(bits>>11)/(1<<53)*2 - 1
			switch data[0] % 3 {
			case 0:
				vals = append(vals, math.Float64frombits(bits))
			case 1:
				vals = append(vals, u*bound)
			default:
				vals = append(vals, u*bound*0x1p-40)
			}
		}
		if len(vals) == 0 {
			return
		}
		terms := make([]float64, int(total)%3001)
		for i := range terms {
			terms[i] = vals[i%len(vals)]
		}
		if !scaledRun(bound, terms) {
			t.Fatalf("bound %v, %d terms: the staged register differs from the per-term fold", bound, len(terms))
		}
	})
}

// BenchmarkScaledAdd is one delta-correction term, wt·(2bδ+δ²) for cell
// values and deltas of order 10–100, added to a Sum: "scaled" through a
// Scaled stage at the bound deltaCorrections uses, "each" by Sum.Add.
//
//	go test -run '^$' -bench ScaledAdd ./internal/exact
func BenchmarkScaledAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	terms := make([]float64, 4096)
	for i := range terms {
		bv, d := 100*rng.Float64(), 50*(rng.Float64()-0.5)
		terms[i] = 2*bv*d + d*d
	}
	b.Run("scaled", func(b *testing.B) {
		var s Sum
		var st Scaled
		st.Reset(50 * (2*1e5 + 50))
		for i := 0; i < b.N; i++ {
			st.Add(&s, terms[i&4095])
		}
		st.Flush(&s)
	})
	b.Run("each", func(b *testing.B) {
		var s Sum
		for i := 0; i < b.N; i++ {
			s.Add(terms[i&4095])
		}
	})
}
