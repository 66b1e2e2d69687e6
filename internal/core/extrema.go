package core

import (
	"fmt"
	"math"

	"seqstore/internal/linalg"
)

// ExtremaDepth is L, the number of cells each column's two lists of the
// extremum index keep. Sized over BenchmarkEvaluateAdhoc's store
// (20 000×366, k = 7, budget 0.10) and its Zipf selections: at L = 64 a
// few selected columns in a thousand are left open, and doubling L closes
// the last open min columns but not the max ones (EXPERIMENTS.md, "Min and
// max from a per-column extremum index").
const ExtremaDepth = 64

// extremaMinRows is the fewest rows a store must exceed to keep the
// extremum index. At 2·L rows or fewer each list holds half its column or
// more, so the index would be a sorted copy of the reconstruction, larger
// than the matrix it indexes, in front of a projection of at most 2·L rows.
const extremaMinRows = 2 * ExtremaDepth

// Extrema is the extremum index: for each column of the reconstruction,
// its L lowest cells in ascending order and its L highest in descending
// order, each a (value, row) pair, and whether the column holds a cell
// whose place in a fold decides the bits of an extremum (Unordered). A
// value is the cell as Row computes it — the σ-scaled U row through
// linalg.DotRows, plus δ on a delta cell — so it is bit-equal to what a
// query reads; equal values keep row order. Rows whose every cell is +0 —
// §6.2 zero rows, and any all-zero U row without deltas, which is what an
// all-zero sequence compresses to — are kept apart as a bitset (ZeroRow)
// and left out of the lists, which their ties would otherwise fill.
//
// A min over a selection R × C then needs no U row: the first entry of a
// column's low list whose row is in R is that column's min over R, and a
// column whose L entries all miss R can be no lower than its L-th value
// (Fagin, Lotem and Naor's threshold algorithm, sorted access only).
//
// The index is main-memory only and costs 24·L bytes per column (two lists
// of L float64 values and uint32 rows), a count and a flag bit per column,
// and a bit per row. The store builds it on the first call of
// Store.Extrema and drops it on every fold. It is read-only once built.
type Extrema struct {
	n         []int32   // per column: the entries each list holds, ≤ L
	lowV      []float64 // column j's low list is lowV[j·L:][:n[j]], ascending
	lowR      []uint32  // the low list's rows
	highV     []float64 // column j's high list, descending
	highR     []uint32  // the high list's rows
	unordered []uint64  // bit j: column j holds a NaN or a −0 cell
	zeroRows  []uint64  // bit i: every cell of row i is +0
}

// Extrema returns the store's extremum index, building it on first use:
// one pass over U, read in place and uncounted on U's read counter (the
// build serves no request), with one DotRows per row. It returns nil when
// the store keeps no index: U is not resident, or the store has no more
// than 2·L rows. Safe for concurrent use; the index stays valid until the
// next fold, which drops it (Fold excludes readers).
func (s *Store) Extrema() (*Extrema, error) {
	if n, _ := s.base.Dims(); n <= extremaMinRows || !s.base.UResident() {
		return nil, nil
	}
	if e := s.extrema.Load(); e != nil {
		return e, nil
	}
	s.extremaMu.Lock()
	defer s.extremaMu.Unlock()
	if e := s.extrema.Load(); e != nil {
		return e, nil
	}
	e, err := s.buildExtrema()
	if err != nil {
		return nil, err
	}
	s.extrema.Store(e)
	return e, nil
}

// ExtremaBytes reports the bytes the extremum index holds: 0 until a min
// or max builds it, and again after a fold drops it.
func (s *Store) ExtremaBytes() int {
	e := s.extrema.Load()
	if e == nil {
		return 0
	}
	return 4*len(e.n) + 8*(len(e.lowV)+len(e.highV)) + 4*(len(e.lowR)+len(e.highR)) + 8*(len(e.unordered)+len(e.zeroRows))
}

// extremaBlock is how many U rows the build reads per URows call.
const extremaBlock = 256

// buildExtrema reconstructs every row once, exactly as Row does, and
// offers each cell to its column's two lists.
func (s *Store) buildExtrema() (*Extrema, error) {
	n, m := s.base.Dims()
	e := &Extrema{
		n:         make([]int32, m),
		lowV:      make([]float64, m*ExtremaDepth),
		lowR:      make([]uint32, m*ExtremaDepth),
		highV:     make([]float64, m*ExtremaDepth),
		highR:     make([]uint32, m*ExtremaDepth),
		unordered: make([]uint64, (m+63)/64),
		zeroRows:  make([]uint64, (n+63)/64),
	}
	sigma, v := s.base.Sigma(), s.base.V().Data()
	k := len(sigma)
	urow := make([]float64, k)
	vals := make([]float64, m)
	var scratch []float64
	for lo := 0; lo < n; lo += extremaBlock {
		hi := min(lo+extremaBlock, n)
		u, err := s.base.URows(lo, hi, &scratch, false)
		if err != nil {
			return nil, fmt.Errorf("core: extrema rows [%d,%d): %w", lo, hi, err)
		}
		for i := lo; i < hi; i++ {
			if s.isZeroRow(i) {
				clear(vals)
			} else {
				for c := range urow {
					urow[c] = u[(i-lo)*k+c] * sigma[c]
				}
				linalg.DotRows(urow, v, vals)
				for p := s.rowStart[i]; p < s.rowStart[i+1]; p++ {
					vals[s.cols[p]] += s.vals[p]
				}
			}
			if allPositiveZero(vals) {
				e.zeroRows[i/64] |= 1 << (i % 64)
				continue
			}
			for j, x := range vals {
				e.offer(j, x, uint32(i))
			}
		}
	}
	return e, nil
}

// allPositiveZero reports whether every value is +0.
func allPositiveZero(vals []float64) bool {
	for _, x := range vals {
		if math.Float64bits(x) != 0 {
			return false
		}
	}
	return true
}

// offer files cell (row, j) of value x into column j's lists, flagging the
// column if x is NaN (then it goes into neither list) or −0. While a column holds fewer than L cells both
// lists take every one; after that a list takes only a cell beyond its
// last entry, which drops off.
func (e *Extrema) offer(j int, x float64, row uint32) {
	if x == 0 && math.Signbit(x) {
		e.unordered[j/64] |= 1 << (j % 64)
	}
	if math.IsNaN(x) {
		e.unordered[j/64] |= 1 << (j % 64)
		return
	}
	at, c := j*ExtremaDepth, int(e.n[j])
	if c < ExtremaDepth {
		e.n[j]++
		insertAsc(e.lowV[at:at+c+1], e.lowR[at:at+c+1], x, row)
		insertDesc(e.highV[at:at+c+1], e.highR[at:at+c+1], x, row)
		return
	}
	end := at + ExtremaDepth
	if x < e.lowV[end-1] {
		insertAsc(e.lowV[at:end], e.lowR[at:end], x, row)
	}
	if x > e.highV[end-1] {
		insertDesc(e.highV[at:end], e.highR[at:end], x, row)
	}
}

// insertAsc puts (x, row) into the ascending entries vs[:len−1], rs[:len−1]
// after every entry of equal value — rows arrive in ascending order, so
// ties keep row order — moving the entries above it up one slot into the
// last, whose old entry is dropped.
func insertAsc(vs []float64, rs []uint32, x float64, row uint32) {
	p := len(vs) - 1
	for ; p > 0 && vs[p-1] > x; p-- {
		vs[p], rs[p] = vs[p-1], rs[p-1]
	}
	vs[p], rs[p] = x, row
}

// insertDesc is insertAsc for descending entries.
func insertDesc(vs []float64, rs []uint32, x float64, row uint32) {
	p := len(vs) - 1
	for ; p > 0 && vs[p-1] < x; p-- {
		vs[p], rs[p] = vs[p-1], rs[p-1]
	}
	vs[p], rs[p] = x, row
}

// Low returns column j's lowest cells, ascending by value, and their rows;
// read-only.
func (e *Extrema) Low(j int) ([]float64, []uint32) {
	at := j * ExtremaDepth
	return e.lowV[at : at+int(e.n[j])], e.lowR[at : at+int(e.n[j])]
}

// High returns column j's highest cells, descending by value, and their
// rows; read-only.
func (e *Extrema) High(j int) ([]float64, []uint32) {
	at := j * ExtremaDepth
	return e.highV[at : at+int(e.n[j])], e.highR[at : at+int(e.n[j])]
}

// ZeroRow reports whether every cell of row i is +0; such a row is in no
// list.
func (e *Extrema) ZeroRow(i int) bool { return e.zeroRows[i/64]&(1<<(i%64)) != 0 }

// Unordered reports whether column j holds a cell whose place in a fold
// decides the bits of a min or max over it: a NaN, which every comparison
// passes over and which the fold keeps, payload and all, wherever it meets
// one (and which neither list carries), or a −0, which ties +0 and so is
// kept only if it comes first. Without such a cell the column's extremum
// over any rows has one bit pattern whatever the order. (A reconstructed
// cell is never −0 today: each Dot starts its lanes at +0, and x + (−x) is
// +0; the flag keeps the index exact should a kernel ever produce one.)
func (e *Extrema) Unordered(j int) bool { return e.unordered[j/64]&(1<<(j%64)) != 0 }
