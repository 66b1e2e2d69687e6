// Package exact provides a reproducible, correctly-rounded float64
// accumulator: a fixed-point superaccumulator in the style of Kulisch's
// long accumulator. Every finite float64 is an integer multiple of
// 2^-1074 with at most 2^1024 magnitude, so a wide-enough two's-complement
// fixed-point register can hold ANY finite sum of float64s exactly. Adds
// commute and associate perfectly (integer arithmetic), so:
//
//   - the result is independent of accumulation order — a sum sharded
//     across workers, chunks, or cluster nodes merges to the identical
//     bit pattern as a serial fold;
//   - Value() is the correctly rounded (round-to-nearest-even) float64 of
//     the true mathematical sum, not of some grouping of it;
//   - Merge is exact word-wise integer addition, safe in any order.
//
// The register spans bit weights 2^-1088 … 2^1151 (35 uint64 words, LSB
// weight 2^-1088): 14 guard bits below the smallest subnormal and 128
// overflow bits above the largest finite float64, so at least 2^127
// worst-case additions fit before the sign bit could be touched. The
// nonfinite inputs NaN/±Inf are tracked as sticky flags with IEEE
// semantics: any NaN (or both infinity signs) → NaN, else one infinity
// sign → that infinity.
//
// Sum is a plain value type (no pointers, no heap): embedding it in
// pooled scratch keeps zero-allocation hot paths zero-allocation.
//
// Add unpacks every term's bits into the register, which is what a
// factored stddev's k + k(k+1)/2 adds per row cost. Stage (stage.go) is
// the cheaper front for that one accumulation: terms of magnitude at most
// 1 are split error-free into two float64 bins per sum whose running
// totals stay exact for 1 024 rows, and the bins are added to the Sums
// once per flush. The flushed registers are the ones per-term Adds build,
// bit for bit, so Value, Merge and the encoding cannot tell the paths
// apart; anything else — a row with an entry outside [-1, 1], NaN or
// ±Inf — is added term by term. Blocks (blocks.go) keeps a Stage's bins
// per aligned block of 64 rows, so a long run of rows adds one entry per
// block instead of its rows; Scaled stages single terms of any magnitude
// at one power-of-two scale. Both flush to the same registers, bit for bit.
package exact

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

const (
	// numWords is the register width. 35×64 = 2240 bits.
	numWords = 35
	// bias is the bit index carrying weight 2^0; bit i weighs 2^(i-bias).
	bias = 1088
	// binarySize is the MarshalBinary length: flags byte + words.
	binarySize = 1 + numWords*8
)

// Sum is an exact float64 accumulator. The zero value is an empty sum
// (Value() == +0). Copying a Sum copies its state; use Merge to combine.
type Sum struct {
	w      [numWords]uint64 // two's-complement fixed point, little-endian words
	nan    bool             // saw a NaN
	posInf bool             // saw +Inf
	negInf bool             // saw -Inf
}

// Reset returns the accumulator to the empty sum.
func (s *Sum) Reset() { *s = Sum{} }

// Add folds v into the sum exactly. NaN and ±Inf set sticky flags and do
// not disturb the finite part; ±0 is a no-op (matching an IEEE fold
// seeded with +0, which never yields -0 after the first term).
func (s *Sum) Add(v float64) {
	b := math.Float64bits(v)
	exp := int(b >> 52 & 0x7ff)
	mant := b & (1<<52 - 1)
	if exp == 0x7ff {
		switch {
		case mant != 0:
			s.nan = true
		case b>>63 != 0:
			s.negInf = true
		default:
			s.posInf = true
		}
		return
	}
	if exp == 0 {
		if mant == 0 {
			return
		}
		exp = 1 // subnormal: same 2^-1074 LSB weight as exp==1, no hidden bit
	} else {
		mant |= 1 << 52
	}
	// The mantissa LSB weighs 2^(exp-1075), i.e. lands at bit exp-1075+bias.
	sh := uint(exp + (bias - 1075))
	wi := int(sh >> 6)
	off := sh & 63
	lo := mant << off
	var hi uint64
	if off != 0 {
		hi = mant >> (64 - off)
	}
	if b>>63 == 0 {
		var c uint64
		s.w[wi], c = bits.Add64(s.w[wi], lo, 0)
		s.w[wi+1], c = bits.Add64(s.w[wi+1], hi, c)
		for i := wi + 2; c != 0 && i < numWords; i++ {
			s.w[i], c = bits.Add64(s.w[i], 0, c)
		}
	} else {
		var bo uint64
		s.w[wi], bo = bits.Sub64(s.w[wi], lo, 0)
		s.w[wi+1], bo = bits.Sub64(s.w[wi+1], hi, bo)
		for i := wi + 2; bo != 0 && i < numWords; i++ {
			s.w[i], bo = bits.Sub64(s.w[i], 0, bo)
		}
	}
}

// Merge folds o into s exactly. Order-independent: merging shard partials
// in any order yields the identical register, hence the identical Value.
func (s *Sum) Merge(o *Sum) {
	var c uint64
	for i := range s.w {
		s.w[i], c = bits.Add64(s.w[i], o.w[i], c)
	}
	s.nan = s.nan || o.nan
	s.posInf = s.posInf || o.posInf
	s.negInf = s.negInf || o.negInf
}

// IsZero reports whether the sum is exactly zero with no nonfinite flags.
func (s *Sum) IsZero() bool {
	if s.nan || s.posInf || s.negInf {
		return false
	}
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Value rounds the exact sum to the nearest float64 (ties to even).
// Nonfinite flags follow IEEE addition: any NaN or both infinity signs →
// NaN; exactly one infinity sign → that infinity. A finite sum too large
// for float64 rounds to ±Inf; exact cancellation yields +0.
func (s *Sum) Value() float64 {
	switch {
	case s.nan || (s.posInf && s.negInf):
		return math.NaN()
	case s.posInf:
		return math.Inf(1)
	case s.negInf:
		return math.Inf(-1)
	}
	m := s.w
	neg := m[numWords-1]>>63 != 0
	if neg {
		c := uint64(1)
		for i := range m {
			m[i], c = bits.Add64(^m[i], 0, c)
		}
	}
	hi := -1
	for i := numWords - 1; i >= 0; i-- {
		if m[i] != 0 {
			hi = i
			break
		}
	}
	if hi < 0 {
		return 0
	}
	msb := hi*64 + 63 - bits.LeadingZeros64(m[hi])
	// Round at bit p, the LSB of the result mantissa. Normal results keep
	// 53 bits; results below 2^-1022 are subnormal and round at the fixed
	// absolute weight 2^-1074 (bit index 14).
	p := msb - 52
	if p < bias-1074 {
		p = bias - 1074
	}
	wi, off := p>>6, uint(p&63)
	mant := m[wi] >> off
	if off != 0 && wi+1 < numWords {
		mant |= m[wi+1] << (64 - off)
	}
	// mant has msb-p+1 ≤ 53 significant bits; everything above msb is 0.
	gw, gb := (p-1)>>6, uint((p-1)&63)
	guard := m[gw]>>gb&1 == 1
	sticky := m[gw]&(1<<gb-1) != 0
	for i := 0; i < gw && !sticky; i++ {
		sticky = m[i] != 0
	}
	if guard && (sticky || mant&1 == 1) {
		mant++ // may carry to 2^53: still exact in float64, Ldexp renormalizes
	}
	v := math.Ldexp(float64(mant), p-bias)
	if neg {
		v = -v
	}
	return v
}

// AppendBinary appends the portable encoding (flags byte, then the
// register words little-endian) to dst and returns the extended slice.
func (s *Sum) AppendBinary(dst []byte) []byte {
	var flags byte
	if s.nan {
		flags |= 1
	}
	if s.posInf {
		flags |= 2
	}
	if s.negInf {
		flags |= 4
	}
	dst = append(dst, flags)
	for _, w := range s.w {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sum) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, binarySize)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sum) UnmarshalBinary(data []byte) error {
	if len(data) != binarySize {
		return fmt.Errorf("exact: bad encoding length %d (want %d)", len(data), binarySize)
	}
	flags := data[0]
	if flags&^7 != 0 {
		return fmt.Errorf("exact: bad flags byte %#x", flags)
	}
	s.nan = flags&1 != 0
	s.posInf = flags&2 != 0
	s.negInf = flags&4 != 0
	for i := range s.w {
		s.w[i] = binary.LittleEndian.Uint64(data[1+i*8:])
	}
	return nil
}

// Equal reports bitwise equality of two accumulator states.
func (s *Sum) Equal(o *Sum) bool {
	return s.w == o.w && s.nan == o.nan && s.posInf == o.posInf && s.negInf == o.negInf
}

// Of returns a Sum holding v (convenience for tests and corrections).
func Of(v float64) Sum {
	var s Sum
	s.Add(v)
	return s
}
