package exact

import "math"

// Stage puts error-free float64 bins in front of a set of Sums for the
// one accumulation that dominates an aggregate: the component sums and the
// Gram matrix of a stream of k-vectors whose entries are at most 1 in
// magnitude (the rows of an orthonormal factor). Sum.Add unpacks every
// term's bits into the 35-word register; a staged term costs a handful of
// float64 additions instead, and the bins reach the register once per
// flush. The register a Stage flushes into is bit for bit the register of
// the plain per-term fold, so nothing downstream — values, merges,
// encodings — can tell the two apart.
//
// Each term t is split against two fixed constants (Rump, Ogita and
// Oishi's ExtractScalar), q1 = (c1+t)−c1, q2 = (c2+r1)−c2 with r1 = t−q1,
// leaving r2 = r1−q2:
//
//   - c1 = 1.5·2^11. For |t| ≤ 1, c1+t lies in [2^11, 2^12), where
//     float64s are 2^-41 apart, so q1 is t rounded to a multiple of 2^-41
//     (the subtraction is exact by Sterbenz), |q1| ≤ 1 and |t−q1| ≤ 2^-42.
//     r1 = t−q1 is exact: q1 = 0, or |q1| ≥ 2^-41 puts t within a factor
//     of 2 of q1 (Sterbenz again).
//   - c2 = 1.5·2^-32. |r1| ≤ 2^-42, so c2+r1 lies in [2^-32, 2^-31), where
//     float64s are 2^-84 apart: q2 is a multiple of 2^-84 with
//     |q2| ≤ 2^-42, and r2 = r1−q2 is exact by the same argument, with
//     |r2| ≤ 2^-85.
//
// So t = q1 + q2 + r2 exactly. Each slot has one bin per grid. After at
// most stageRows = 2^10 rows, bin 1 is a multiple of 2^-41 of magnitude
// at most 2^10, and bin 2 a multiple of 2^-84 of magnitude at most 2^-32:
// both are integers of at most 2^52 units, so every float64 addition into
// a bin is exact. (Bin 2 would stay exact up to 2^11 rows; 2^10 keeps a
// factor of 2 in hand.) A nonzero r2 — a term with bits below 2^-84, e.g.
// a product of two entries near 1e-6 — goes to Sum.Add at once.
//
// A row with any entry that is not in [-1, 1] (NaN and ±Inf included)
// takes the per-term Sum.Add fold for the whole row, so the bound is a
// speed hint: exactness never depends on it. Products are written
// float64(a*b): an explicit conversion forbids the compiler to fuse the
// multiply into the split's first addition, which on an FMA target would
// split the unrounded product and stage a different term.
//
// The bins sit in a packed layout: the k component sums, then, when the
// Gram is staged, its k(k+1)/2 upper-triangle terms row by row (a, b ≥ a).
// That is also the layout of a Blocks entry, so AddBlock adds an entry
// slot for slot.
//
// The zero Stage is ready for Reset, which reuses the bin slices when
// they are large enough, so a pooled Stage allocates once.
type Stage struct {
	hi, lo []float64 // per slot: Σ q1 (2^-41 grid), Σ q2 (2^-84 grid)
	rows   int       // rows staged since the last flush
}

const (
	// stageRows is the flush interval, derived above.
	stageRows = 1 << 10
	split1    = 0x1.8p11  // c1 = 1.5·2^11
	split2    = 0x1.8p-32 // c2 = 1.5·2^-32
)

// slots returns the number of bins a Stage over k-vectors keeps: k, plus
// k(k+1)/2 with the Gram.
func slots(k int, gram bool) int {
	if gram {
		return k + k*(k+1)/2
	}
	return k
}

// Reset empties the stage and sizes it for k-vectors: their k component
// sums and, with gram, their Gram.
func (s *Stage) Reset(k int, gram bool) {
	n := slots(k, gram)
	if cap(s.hi) < n {
		s.hi, s.lo = make([]float64, n), make([]float64, n)
	}
	s.hi, s.lo = s.hi[:n], s.lo[:n]
	clear(s.hi)
	clear(s.lo)
	s.rows = 0
}

// AddMoments folds one row into acc (acc[m] += row[m]) and, when g is not
// empty, into the upper triangle of the k×k row-major Gram g
// (g[a·k+b] += row[a]·row[b] for a ≤ b), through the stage's bins. The
// stage must have been Reset for len(row) = len(acc) and a Gram exactly
// when g is not empty. Terms reach acc and g exactly as Sum.Add would put
// them there once Flush has run.
func (s *Stage) AddMoments(acc, g []Sum, row []float64) {
	for _, x := range row {
		if !(math.Abs(x) <= 1) {
			addMomentsEach(acc, g, row)
			return
		}
	}
	k := len(row)
	hi, lo := s.hi[:k], s.lo[:k]
	for m, t := range row {
		q1, q2, r := split(t)
		hi[m] += q1
		lo[m] += q2
		if r != 0 {
			acc[m].Add(r)
		}
	}
	if len(g) != 0 {
		off := k
		for a, ra := range row {
			rb := row[a:]
			if ra != 0 {
				gh, gl := s.hi[off:][:len(rb)], s.lo[off:][:len(rb)]
				for j, x := range rb {
					q1, q2, r := split(float64(ra * x))
					gh[j] += q1
					gl[j] += q2
					if r != 0 {
						g[a*k+a+j].Add(r)
					}
				}
			}
			off += len(rb)
		}
	}
	if s.rows++; s.rows == stageRows {
		s.Flush(acc, g)
	}
}

// AddBlock adds a Blocks entry — the staged bins of BlockRows rows and the
// terms their staging spilled — to the stage and its registers in place of
// the rows, and counts them toward the flush. Only the stage's own slots
// are read, so a stage without the Gram takes the entry's component sums
// alone. Both bins stay exact: the entry's bins are sums of the very grid
// values its rows would have added, and the stage flushes first when the
// block's rows would carry it past stageRows.
func (s *Stage) AddBlock(acc, g []Sum, e Entry) {
	if s.rows > stageRows-BlockRows {
		s.Flush(acc, g)
	}
	sh, sl := s.hi, s.lo
	for i, x := range e.Hi[:len(sh)] {
		sh[i] += x
	}
	for i, x := range e.Lo[:len(sl)] {
		sl[i] += x
	}
	k := len(acc)
	for x, at := range e.Regs {
		if int(at) < k {
			acc[at].Add(e.Vals[x])
		} else if len(g) != 0 {
			g[int(at)-k].Add(e.Vals[x])
		}
	}
	if s.rows += BlockRows; s.rows == stageRows {
		s.Flush(acc, g)
	}
}

// split is the two-level error-free extraction described on Stage:
// t = q1 + q2 + r exactly, for |t| ≤ 1.
func split(t float64) (q1, q2, r float64) {
	q1 = (split1 + t) - split1
	r = t - q1
	q2 = (split2 + r) - split2
	return q1, q2, r - q2
}

// addMomentsEach is AddMoments without the stage: one Sum.Add per term.
// A zero entry's products are skipped, as ±0 adds nothing to a finite
// sum; that also keeps 0·Inf from turning a Gram entry into NaN.
func addMomentsEach(acc, g []Sum, row []float64) {
	for m, x := range row {
		acc[m].Add(x)
	}
	if len(g) == 0 {
		return
	}
	k := len(row)
	for a, ra := range row {
		if ra == 0 {
			continue
		}
		base := a * k
		for b := a; b < k; b++ {
			g[base+b].Add(float64(ra * row[b]))
		}
	}
}

// Flush adds the staged bins to acc and g (the slices AddMoments was
// given) and empties the stage. After Flush, acc and g hold exactly the
// registers a per-term Sum.Add fold of every row would hold.
func (s *Stage) Flush(acc, g []Sum) {
	if s.rows == 0 {
		return
	}
	k := len(acc)
	flushBins(acc, s.hi[:k], s.lo[:k])
	if len(g) != 0 {
		off := k
		for a := 0; a < k; a++ {
			n := k - a
			flushBins(g[a*k+a:][:n], s.hi[off:][:n], s.lo[off:][:n])
			off += n
		}
	}
	s.rows = 0
}

func flushBins(sums []Sum, hi, lo []float64) {
	hi, lo = hi[:len(sums)], lo[:len(sums)]
	for i := range sums {
		if hi[i] != 0 {
			sums[i].Add(hi[i])
			hi[i] = 0
		}
		if lo[i] != 0 {
			sums[i].Add(lo[i])
			lo[i] = 0
		}
	}
}

// Scaled stages single terms of any magnitude into one Sum through the
// same two bins, at one power-of-two scale 2^e fixed by Reset: a term t is
// staged as x = t·2^-e when that is exact and |x| ≤ 1, and the bins reach
// the Sum multiplied back by 2^e. Scaling by a power of two moves the
// exponent and no bit, so the Sum ends up holding exactly the register a
// per-term Add of every t builds. Anything else — a term above the bound,
// one whose scaled value would lose bits as a subnormal, NaN, ±Inf — is
// added to the Sum at once; the bound is a speed hint, as on Stage.
type Scaled struct {
	scale, inv float64 // 2^e and 2^-e
	hi, lo     float64
	terms      int // terms staged since the last flush
}

// maxScaleExp keeps 2^e·stageRows, the largest flushed bin, finite.
const maxScaleExp = 1000

// Reset empties the stage and fixes its scale: the least power of two, at
// least 1, above bound. A bound too large to scale the bins back, or not
// finite, gets scale 1.
func (s *Scaled) Reset(bound float64) {
	e := 0
	if _, be := math.Frexp(bound); be > 0 && be <= maxScaleExp {
		e = be
	}
	s.scale, s.inv = math.Ldexp(1, e), math.Ldexp(1, -e)
	s.hi, s.lo, s.terms = 0, 0, 0
}

// Add folds t into sum through the stage.
func (s *Scaled) Add(sum *Sum, t float64) {
	x := float64(t * s.inv)
	if !(math.Abs(x) <= 1) || float64(x*s.scale) != t {
		sum.Add(t)
		return
	}
	q1, q2, r := split(x)
	s.hi += q1
	s.lo += q2
	if r != 0 {
		sum.Add(float64(r * s.scale))
	}
	if s.terms++; s.terms == stageRows {
		s.Flush(sum)
	}
}

// Flush adds the staged bins, scaled back, to sum (the Sum Add was given)
// and empties the stage.
func (s *Scaled) Flush(sum *Sum) {
	if s.hi != 0 {
		sum.Add(float64(s.hi * s.scale))
	}
	if s.lo != 0 {
		sum.Add(float64(s.lo * s.scale))
	}
	s.hi, s.lo, s.terms = 0, 0, 0
}
