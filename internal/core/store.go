package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"seqstore/internal/pqueue"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// Store is the SVDD representation: a plain-SVD store plus the (row, col, δ)
// triplets of the outlier cells. The triplets live in one index — a CSR in
// (row, col) order — that serves the point lookup (Cell), row-shaped access
// (row reconstruction, selection-restricted aggregates) and the .sqz
// encoder alike. The paper screens its disk-resident hash table with a
// membership filter (§4.2); this index is in memory, where a binary search
// of one short bucket costs less than such a screen.
//
// SVDD with no deltas is the paper's plain SVD, so a plain-SVD store is a
// Store too (Plain): method SVD, an empty index and no zero-row flags. It
// keeps that method through slicing, fold-in and serialization.
type Store struct {
	base        *svd.Store
	method      store.Method // MethodSVDD, or MethodSVD for a Plain store
	outlierCost int
	diag        Diagnostics

	// The delta index: row i's bucket is cols/vals[rowStart[i]:rowStart[i+1]],
	// ascending by column, and rowStart always holds N+1 offsets — so the
	// arrays read front to back are the deltas in ascending cell-key order.
	// Only cols/vals' contents are charged to the space budget (OutlierCost
	// numbers per delta); the offsets are a main-memory acceleration
	// structure rebuilt at load time.
	rowStart []uint32
	cols     []int32
	vals     []float64

	// tau is τ = min |δ| when the store was built or loaded, +Inf with no
	// deltas: §4.2's bound on every other cell, which Fold keeps.
	tau float64
	// deltaMax is the largest |δ| stored, folds included (0 with none).
	deltaMax float64

	// §6.2 zero-row flags: rows that are entirely zero reconstruct to 0
	// without any U access. zeroBits is an exact bitset over the rows the
	// store was built with (bit i of word i/64); rows a fold appends lie
	// past it and are never zero. Both nil when the feature is off.
	zeroList []int32 // sorted, for serialization and space accounting
	zeroBits []uint64

	// colView is the column-major view of the delta index with its
	// precomputed second-moment terms (DeltaColumns): nil until the first
	// factored aggregate builds it under colViewMu, and nil again after a
	// fold.
	colView   atomic.Pointer[DeltaColumns]
	colViewMu sync.Mutex
	// extrema is the per-column extremum index (Extrema): nil until the
	// first min or max builds it under extremaMu, and nil again after a
	// fold.
	extrema   atomic.Pointer[Extrema]
	extremaMu sync.Mutex

	probes    atomic.Int64 // delta-index point lookups performed
	rowProbes atomic.Int64 // bucket reads (rows, aggregate slabs, column walks)
	zeroHits  atomic.Int64 // lookups answered by the zero-row flags
}

// newStore assembles the SVDD store from the plain-SVD base at k_opt, the
// chosen outlier items (distinct cells, in any order), and any flagged
// all-zero rows (sorted, each below N).
func newStore(base *svd.Store, items []pqueue.Item, zeroRows []int32, outlierCost int, diag Diagnostics) *Store {
	_, m := base.Dims()
	keys := make([]uint64, len(items))
	vals := make([]float64, len(items))
	for p, it := range items {
		keys[p], vals[p] = cellKey(it.Row, it.Col, m), it.Delta
	}
	s := &Store{base: base, method: store.MethodSVDD, outlierCost: outlierCost, diag: diag}
	s.indexDeltas(keys, vals)
	s.installZeroRows(zeroRows)
	return s
}

// Plain wraps a plain-SVD store as a Store with no deltas and no zero-row
// flags. Its method stays store.MethodSVD, so Method, EncodePayload and
// StoredNumbers give the plain store's method, bytes and cost, and a fold
// never adds a delta to it.
func Plain(base *svd.Store) *Store {
	n, _ := base.Dims()
	return &Store{base: base, method: store.MethodSVD, rowStart: make([]uint32, n+1), tau: math.Inf(1)}
}

// cellKey packs a matrix cell (row, col) into row·M + col, the row-major
// cell order the paper specifies for the outlier table and the key the
// .sqz format stores each delta under.
func cellKey(row, col, cols int) uint64 {
	return uint64(row)*uint64(cols) + uint64(col)
}

// indexDeltas builds the delta index from cell keys (all below N·M, in any
// order) and their deltas with one counting sort by row: count into
// rowStart, prefix-sum, scatter. The scatter keeps each row's entries in
// input order, so keys that arrive ascending — what EncodePayload writes —
// need no more; any other bucket is then sorted by column. It also fixes
// τ, the smallest |δ|.
func (s *Store) indexDeltas(keys []uint64, vals []float64) {
	n, m := s.base.Dims()
	s.tau, s.deltaMax = math.Inf(1), 0
	for _, v := range vals {
		s.tau, s.deltaMax = min(s.tau, math.Abs(v)), max(s.deltaMax, math.Abs(v))
	}
	start := make([]uint32, n+2)
	for _, key := range keys {
		start[key/uint64(m)+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	// start[i+1] is now row i's first slot; scattering advances it to row
	// i's end, which is where row i+1 starts — start[:n+1] ends up the
	// offsets.
	s.cols = make([]int32, len(keys))
	s.vals = make([]float64, len(keys))
	for p, key := range keys {
		at := &start[key/uint64(m)+1]
		s.cols[*at], s.vals[*at] = int32(key%uint64(m)), vals[p]
		*at++
	}
	s.rowStart = start[:n+1]
	for i := 0; i < n; i++ {
		s.sortBucket(i)
	}
}

// sortBucket restores row i's ascending-column order.
func (s *Store) sortBucket(i int) {
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	if !slices.IsSorted(s.cols[lo:hi]) {
		sort.Sort(bucket{s.cols[lo:hi], s.vals[lo:hi]})
	}
}

// bucket is one row's stretch of the delta index, sortable by column.
type bucket struct {
	cols []int32
	vals []float64
}

func (b bucket) Len() int           { return len(b.cols) }
func (b bucket) Less(i, j int) bool { return b.cols[i] < b.cols[j] }
func (b bucket) Swap(i, j int) {
	b.cols[i], b.cols[j] = b.cols[j], b.cols[i]
	b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
}

// installZeroRows sets the zero-row flags from a sorted list of rows, each
// in [0, N); an empty list leaves the feature off.
func (s *Store) installZeroRows(zeroRows []int32) {
	if len(zeroRows) == 0 {
		return
	}
	n, _ := s.base.Dims()
	s.zeroList = zeroRows
	s.zeroBits = make([]uint64, (n+63)/64)
	for _, r := range zeroRows {
		s.zeroBits[r/64] |= 1 << (r % 64)
	}
}

// isZeroRow reports whether row i was flagged as all-zero. A negative i
// wraps to a huge word index and, like any row past the bitset, is not
// zero.
func (s *Store) isZeroRow(i int) bool {
	w := uint(i) / 64
	return w < uint(len(s.zeroBits)) && s.zeroBits[w]&(1<<(uint(i)%64)) != 0
}

// Dims returns the dimensions of the represented matrix.
func (s *Store) Dims() (int, int) { return s.base.Dims() }

// Method returns store.MethodSVDD, or store.MethodSVD for a Plain store.
func (s *Store) Method() store.Method { return s.method }

// K returns the chosen cutoff k_opt.
func (s *Store) K() int { return s.base.K() }

// MaxDelta returns the largest |δ| the store holds, 0 with no deltas.
func (s *Store) MaxDelta() float64 { return s.deltaMax }

// NumOutliers returns the number of stored deltas.
func (s *Store) NumOutliers() int { return len(s.cols) }

// Diagnostics returns what the k_opt search of pass 2 decided.
func (s *Store) Diagnostics() Diagnostics { return s.diag }

// Base exposes the underlying plain-SVD factors (shared, do not modify); the
// query package uses them for factored aggregation and the serving layer
// for the U backing's cost model.
func (s *Store) Base() *svd.Store { return s.base }

// SliceRows returns a store over rows [lo, hi) of the same compression:
// the SVD base is sliced (shared σ/V, copied U rows), the deltas falling in
// the range are re-keyed to local row indices, and zero-row flags are
// shifted likewise; the method is kept. Reconstruction of slice cell
// (i−lo, j) is bit-identical to the parent's cell (i, j); this is how the
// distributed tier builds shard stores that are exact row partitions of one
// factorization.
func (s *Store) SliceRows(lo, hi int) (*Store, error) {
	base, err := s.base.SliceRows(lo, hi)
	if err != nil {
		return nil, err
	}
	items := make([]pqueue.Item, 0, s.rowStart[hi]-s.rowStart[lo])
	for i := lo; i < hi; i++ {
		for p, end := s.rowStart[i], s.rowStart[i+1]; p < end; p++ {
			items = append(items, pqueue.Item{Row: i - lo, Col: int(s.cols[p]), Delta: s.vals[p]})
		}
	}
	var zeroRows []int32
	for _, zr := range s.zeroList {
		if int(zr) >= lo && int(zr) < hi {
			zeroRows = append(zeroRows, zr-int32(lo))
		}
	}
	sliced := newStore(base, items, zeroRows, s.outlierCost, s.diag)
	sliced.method = s.method
	return sliced, nil
}

// Deltas iterates over all stored outliers in (row, col) order.
func (s *Store) Deltas(fn func(row, col int, delta float64)) {
	for i := 0; i+1 < len(s.rowStart); i++ {
		for p, end := s.rowStart[i], s.rowStart[i+1]; p < end; p++ {
			fn(i, int(s.cols[p]), s.vals[p])
		}
	}
}

// RowDeltas calls fn for every stored outlier of row i in ascending column
// order, probing only that row's bucket. A row outside the store holds no
// deltas.
func (s *Store) RowDeltas(i int, fn func(col int, delta float64)) {
	s.rowProbes.Add(1)
	if i < 0 || i+1 >= len(s.rowStart) {
		return
	}
	for p, end := s.rowStart[i], s.rowStart[i+1]; p < end; p++ {
		fn(int(s.cols[p]), s.vals[p])
	}
}

// DeltaSlab is the delta index over a run of consecutive rows: one
// contiguous stretch of the (row, col)-ordered delta arrays, shared with
// the store and read-only.
type DeltaSlab struct {
	lo    int
	start []uint32 // one offset per row of the run, plus the end
	cols  []int32
	vals  []float64
}

// DeltaSlab returns the buckets of rows [lo, hi), 0 ≤ lo ≤ hi ≤ N, charged
// as hi−lo bucket lookups at once — the query engine's
// selection-restricted aggregates visit exactly the buckets of the
// selected rows, a scan run at a time, instead of the whole delta table.
func (s *Store) DeltaSlab(lo, hi int) DeltaSlab {
	s.rowProbes.Add(int64(hi - lo))
	return DeltaSlab{lo: lo, start: s.rowStart[lo : hi+1], cols: s.cols, vals: s.vals}
}

// Len is the number of deltas the slab's rows hold.
func (d DeltaSlab) Len() int { return int(d.start[len(d.start)-1] - d.start[0]) }

// Row returns row i's bucket as parallel column/delta slices, ascending by
// column; i must lie in the slab's run.
func (d DeltaSlab) Row(i int) ([]int32, []float64) {
	a, b := d.start[i-d.lo], d.start[i-d.lo+1]
	return d.cols[a:b], d.vals[a:b]
}

// Slot returns the position of row i's first delta in the row-major
// index, where DeltaColumns.Term finds its term; i must lie in the slab's
// run.
func (d DeltaSlab) Slot(i int) int { return int(d.start[i-d.lo]) }

// ProbeStats reports how many delta-index point lookups were performed and
// how many cell and row lookups the zero-row flags answered instead.
func (s *Store) ProbeStats() (probes, zeroHits int64) {
	return s.probes.Load(), s.zeroHits.Load()
}

// RowProbes reports how many bucket reads the delta index served: row
// reconstructions, and the row or column buckets a selection-restricted
// aggregate's corrections walked.
func (s *Store) RowProbes() int64 { return s.rowProbes.Load() }

// delta returns the stored correction for cell (i, j) of the store and
// whether there is one: a binary search of row i's bucket.
func (s *Store) delta(i, j int) (float64, bool) {
	s.probes.Add(1)
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	if p, ok := slices.BinarySearch(s.cols[lo:hi], int32(j)); ok {
		return s.vals[int(lo)+p], true
	}
	return 0, false
}

// Cell reconstructs x̂[i][j]: the plain-SVD value plus the delta when the
// cell is a stored outlier (in which case the reconstruction is exact).
// Any other cell is the plain-SVD value as it is — −0 included, as in Row.
// Cells of flagged zero rows return 0 with no U access at all (§6.2).
func (s *Store) Cell(i, j int) (float64, error) {
	if s.isZeroRow(i) {
		_, m := s.base.Dims()
		if j < 0 || j >= m {
			return 0, fmt.Errorf("core: column %d out of range %d (%w)", j, m, seqerr.ErrOutOfRange)
		}
		s.zeroHits.Add(1)
		return 0, nil
	}
	v, err := s.base.Cell(i, j)
	if err != nil {
		return 0, err
	}
	if d, ok := s.delta(i, j); ok {
		v += d
	}
	return v, nil
}

// Row reconstructs row i, applying any deltas that fall in it: one walk of
// the row's bucket — O(outliers-in-row), not M point probes — adding the
// values the per-cell path adds.
func (s *Store) Row(i int, dst []float64) ([]float64, error) {
	n, m := s.base.Dims()
	if s.isZeroRow(i) {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("core: row %d out of range %d (%w)", i, n, seqerr.ErrOutOfRange)
		}
		if cap(dst) < m {
			dst = make([]float64, m)
		}
		dst = dst[:m]
		for j := range dst {
			dst[j] = 0
		}
		s.zeroHits.Add(1)
		return dst, nil
	}
	dst, err := s.base.Row(i, dst)
	if err != nil {
		return nil, err
	}
	s.RowDeltas(i, func(col int, delta float64) {
		dst[col] += delta
	})
	return dst, nil
}

// IsZeroRow reports whether row i was flagged as all-zero (§6.2); such rows
// reconstruct to 0 with no U access and hold no deltas.
func (s *Store) IsZeroRow(i int) bool { return s.isZeroRow(i) }

// ZeroRows returns the flagged all-zero rows (sorted), or nil when the
// feature is off.
func (s *Store) ZeroRows() []int32 {
	out := make([]int32, len(s.zeroList))
	copy(out, s.zeroList)
	return out
}

// SetPrecision selects b, the bytes per stored number at serialization
// time (4 or 8), for the SVD part and the delta values alike. Quantized
// deltas repair outliers to float32 accuracy instead of exactly.
func (s *Store) SetPrecision(bytes int) error { return s.base.SetPrecision(bytes) }

// Precision returns b, the bytes per stored number.
func (s *Store) Precision() int { return s.base.Precision() }

// StoredBytes returns StoredNumbers()·b.
func (s *Store) StoredBytes() int64 { return s.StoredNumbers() * int64(s.Precision()) }

// StoredNumbers returns the plain-SVD cost plus OutlierCost numbers per
// stored delta plus one number per flagged zero row. The delta index's row
// offsets and the zero-row bitset are main-memory acceleration structures
// and, like the paper's membership filters, are not charged against the
// budget.
func (s *Store) StoredNumbers() int64 {
	return s.base.StoredNumbers() +
		int64(len(s.cols))*int64(s.outlierCost) +
		int64(len(s.zeroList))
}

// EncodePayload serializes the base store, the deltas as (cell key, δ)
// pairs in ascending key order — the order the index holds them in — the
// diagnostics, and the zero-row flags. A Plain store is its base's payload
// alone, the method-SVD format.
func (s *Store) EncodePayload(w *store.Writer) error {
	if err := s.base.EncodePayload(w); err != nil || s.method == store.MethodSVD {
		return err
	}
	w.U32(uint32(s.outlierCost))
	w.U64(uint64(len(s.cols)))
	_, m := s.base.Dims()
	prec := s.base.Precision()
	for i := 0; i+1 < len(s.rowStart); i++ {
		rowKey := uint64(i) * uint64(m)
		for p, end := s.rowStart[i], s.rowStart[i+1]; p < end; p++ {
			w.U64(rowKey + uint64(s.cols[p]))
			w.FP(s.vals[p], prec)
		}
	}
	// Diagnostics.
	w.U32(uint32(s.diag.KMax))
	w.U32(uint32(s.diag.ChosenK))
	w.U64(uint64(s.diag.Gamma))
	w.U64(uint64(len(s.diag.Candidates)))
	for _, c := range s.diag.Candidates {
		w.U32(uint32(c.K))
		w.U64(uint64(c.Gamma))
		w.F64(c.SSE)
		w.F64(c.Eps)
	}
	// The format's delta-filter flag (no filter bytes follow), the zero-row
	// flags (§6.2) and the zero-row-filter flag: this writer stores neither
	// filter.
	w.U16(0)
	w.I32Slice(s.zeroList)
	w.U16(0)
	return w.Err()
}

func decode(r *store.Reader) (store.Store, error) {
	baseStore, err := svd.DecodePayload(r)
	if err != nil {
		return nil, err
	}
	outlierCost := int(r.U32())
	nd := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if outlierCost <= 0 {
		return nil, fmt.Errorf("%w: outlier cost %d", store.ErrCorrupt, outlierCost)
	}
	n, m := baseStore.Dims()
	maxKey := uint64(n) * uint64(m)
	// The count is not trusted with an allocation until that many pairs
	// have actually been read.
	trusted := min(nd, 1<<20)
	keys := make([]uint64, 0, trusted)
	vals := make([]float64, 0, trusted)
	prec := baseStore.Precision()
	for i := 0; i < nd; i++ {
		key := r.U64()
		val := r.FP(prec)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if key >= maxKey {
			return nil, fmt.Errorf("%w: delta key %d outside %d×%d", store.ErrCorrupt, key, n, m)
		}
		keys, vals = append(keys, key), append(vals, val)
	}
	var diag Diagnostics
	diag.KMax = int(r.U32())
	diag.ChosenK = int(r.U32())
	diag.Gamma = int(r.U64())
	nc := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < nc; i++ {
		diag.Candidates = append(diag.Candidates, CandidateStat{
			K:     int(r.U32()),
			Gamma: int(r.U64()),
			SSE:   r.F64(),
			Eps:   r.F64(),
		})
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	// Older writers stored a Bloom filter over the deltas here, and flagged
	// one over the zero rows after them: the filter bytes are read (the
	// frame bounds their length, its CRC covers them) and dropped, and both
	// flags are ignored.
	if r.U16() == 1 {
		r.ByteSlice()
	}
	zeroRows := r.I32Slice()
	r.U16()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s := &Store{base: baseStore, method: store.MethodSVDD, outlierCost: outlierCost, diag: diag}
	// Keys may arrive in any order (older writers are not assumed sorted),
	// but a key may arrive only once: a repeat would put two entries for one
	// cell into a bucket, and only one of them would ever be found.
	s.indexDeltas(keys, vals)
	for i := 0; i < n; i++ {
		cols := s.cols[s.rowStart[i]:s.rowStart[i+1]]
		for p := 1; p < len(cols); p++ {
			if cols[p] == cols[p-1] {
				return nil, fmt.Errorf("%w: delta key %d (row %d, column %d) stored twice",
					store.ErrCorrupt, cellKey(i, int(cols[p]), m), i, cols[p])
			}
		}
	}
	for _, zr := range zeroRows {
		if zr < 0 || int(zr) >= n {
			return nil, fmt.Errorf("%w: zero row %d outside %d rows", store.ErrCorrupt, zr, n)
		}
	}
	s.installZeroRows(zeroRows)
	return s, nil
}

// decodePlain reads a method-SVD payload as a Plain store.
func decodePlain(r *store.Reader) (store.Store, error) {
	base, err := svd.DecodePayload(r)
	if err != nil {
		return nil, err
	}
	return Plain(base), nil
}

func init() {
	store.RegisterCodec(store.MethodSVD, decodePlain)
	store.RegisterCodec(store.MethodSVDD, decode)
}

var _ store.Encoder = (*Store)(nil)
