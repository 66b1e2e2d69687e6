package exact

import (
	"math"
	"sync"
)

// BlockRows is the number of consecutive rows one Blocks entry stages.
const BlockRows = 64

// Blocks is an append-only index of staged moments over a stream of
// k-vectors (the rows of an orthonormal factor): for every aligned block of
// BlockRows rows, the two bins a Stage holds after AddMoments of exactly
// those rows with the Gram, and the rare terms the staging spilled to the
// registers — the residuals below the second bin's grid, summed per slot.
// A Stage takes an entry through AddBlock in place of its rows, so a sum
// over a long run of rows stages only the rows at its ends, and the
// registers it flushes are still bit for bit the per-term fold's: each
// bin is an exact sum of grid values, whichever rows or blocks they came
// from, and each spill is the exact sum the rows' residuals add.
//
// A block holding an entry outside [-1, 1] (NaN and ±Inf included) is
// marked instead, as is one whose spill in some slot is not a single
// float64; a marked block's rows are read and staged one by one.
// Exactness never depends on the index.
//
// An entry costs 2·slots(k, true) float64s, 8.75 bytes per row at k = 7,
// plus 4 bytes per block and 12 per spilled slot.
type Blocks struct {
	k     int
	bins  []float64 // per block: slots(k, true) hi, then as many lo; hi[0] NaN marks a block left out
	spill []uint32  // spill[i]: the end of block i's spills in regs and vals
	regs  []int32   // the register a spill goes to (Entry.Regs)
	vals  []float64 // the exact sum the block's rows spilled to it
}

// Entry is one block of a Blocks index, as AddBlock takes it: the bins in
// the Stage's packed layout, and the spills — the register each goes to
// (m < k for component m, k + a·k + b for Gram term (a, b)) and the exact
// sum it adds. Read-only.
type Entry struct {
	Hi, Lo []float64
	Regs   []int32
	Vals   []float64
}

// NewBlocks returns an empty index over k-vectors, with room for n blocks.
func NewBlocks(k, n int) Blocks {
	return Blocks{k: k, bins: make([]float64, 0, n*2*slots(k, true)), spill: make([]uint32, 0, n)}
}

// Len returns the number of blocks indexed, marked ones included.
func (b *Blocks) Len() int { return len(b.spill) }

// Block returns block i's entry, and false for a block that is marked or
// not indexed.
func (b *Blocks) Block(i int) (Entry, bool) {
	if i < 0 || i >= len(b.spill) {
		return Entry{}, false
	}
	n := slots(b.k, true)
	e := b.bins[2*n*i : 2*n*(i+1)]
	if math.IsNaN(e[0]) {
		return Entry{}, false
	}
	lo := uint32(0)
	if i > 0 {
		lo = b.spill[i-1]
	}
	hi := b.spill[i]
	return Entry{Hi: e[:n], Lo: e[n:], Regs: b.regs[lo:hi], Vals: b.vals[lo:hi]}, true
}

// Append indexes the next blocks: rows holds a whole number of blocks of
// BlockRows rows, k numbers each, row-major. An index over no components
// stays empty.
func (b *Blocks) Append(rows []float64) {
	k := b.k
	if k == 0 {
		return
	}
	sc := blockScratch.Get().(*stagedBlock)
	defer blockScratch.Put(sc)
	st := &sc.st
	sc.acc, sc.g = ensure(sc.acc, k), ensure(sc.g, k*k)
	acc, g := sc.acc, sc.g
	for ; len(rows) >= BlockRows*k; rows = rows[BlockRows*k:] {
		st.Reset(k, true)
		block := rows[:BlockRows*k]
		ok := true
		for _, x := range block {
			if !(math.Abs(x) <= 1) {
				ok = false
				break
			}
		}
		if ok {
			for r := 0; r < BlockRows; r++ {
				st.AddMoments(acc, g, block[r*k:(r+1)*k])
			}
		}
		at, spilled := len(b.bins), len(b.regs)
		b.bins = append(append(b.bins, st.hi...), st.lo...)
		// The registers hold what the staging spilled: keep each one's
		// sum where one float64 holds it exactly.
		keep := func(reg *Sum, to int) {
			if reg.IsZero() {
				return
			}
			v := reg.Value()
			if reg.Add(-v); !reg.IsZero() {
				ok = false
			}
			b.regs, b.vals = append(b.regs, int32(to)), append(b.vals, v)
			reg.Reset()
		}
		for m := range acc {
			keep(&acc[m], m)
		}
		for i := range g {
			keep(&g[i], k+i)
		}
		if !ok {
			b.bins[at] = math.NaN()
			b.regs, b.vals = b.regs[:spilled], b.vals[:spilled]
		}
		b.spill = append(b.spill, uint32(len(b.regs)))
	}
}

// stagedBlock is Append's scratch: the stage a block is staged in and the
// registers its spills reach, k + k² Sums (16.5 KB at k = 7), recycled
// through blockScratch so that a fold filling a block allocates no
// scratch.
type stagedBlock struct {
	st     Stage
	acc, g []Sum
}

var blockScratch = sync.Pool{New: func() any { return new(stagedBlock) }}

// ensure returns s resized to n zero Sums, reusing its backing array when
// the capacity allows.
func ensure(s []Sum, n int) []Sum {
	if cap(s) < n {
		return make([]Sum, n)
	}
	s = s[:n]
	clear(s)
	return s
}
