package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"seqstore/internal/bloom"
	"seqstore/internal/pqueue"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// Store is the SVDD representation: a plain-SVD store plus a hash table of
// (row, col) → delta for the outlier cells, fronted by an optional Bloom
// filter that short-circuits the common "not an outlier" case. A row-major
// index over the same deltas serves row-shaped access (row reconstruction,
// selection-restricted aggregates) without probing the hash table once per
// cell.
type Store struct {
	base        *svd.Store
	deltas      map[uint64]float64
	filter      *bloom.Filter // nil when disabled
	outlierCost int
	diag        Diagnostics

	// The row index: the deltas again, in (row, col) order, as a CSR —
	// row i's bucket is cols/vals[rowStart[i]:rowStart[i+1]], ascending by
	// column, and rowStart always holds N+1 offsets. Like the Bloom filter
	// it is a main-memory acceleration structure rebuilt at load time and
	// not charged to the space budget.
	rowStart []uint32
	cols     []int32
	vals     []float64

	// §6.2 zero-row flags: rows that are entirely zero reconstruct to 0
	// without any U access. zeroFilter screens zeroSet the way filter
	// screens deltas. Both nil/empty when the feature is off.
	zeroSet    map[int32]struct{}
	zeroList   []int32 // sorted, for serialization and space accounting
	zeroFilter *bloom.Filter

	probes     atomic.Int64 // hash-table probes performed
	bloomSaves atomic.Int64 // probes avoided by the Bloom filter
	rowProbes  atomic.Int64 // per-row bucket lookups served by the row index
	zeroHits   atomic.Int64 // cell lookups answered by the zero-row flags
}

// newStore assembles the SVDD store from the plain-SVD base at k_opt, the
// chosen outlier items, and any flagged all-zero rows.
func newStore(base *svd.Store, items []pqueue.Item, zeroRows []int32, opts Options, diag Diagnostics) (*Store, error) {
	_, m := base.Dims()
	deltas := make(map[uint64]float64, len(items))
	var filter *bloom.Filter
	if opts.BloomFP >= 0 {
		fp := opts.BloomFP
		if fp == 0 {
			fp = DefaultBloomFP
		}
		var err error
		filter, err = bloom.New(len(items)+1, fp)
		if err != nil {
			return nil, fmt.Errorf("core: bloom filter: %w", err)
		}
	}
	for _, it := range items {
		key := bloom.CellKey(it.Row, it.Col, m)
		deltas[key] = it.Delta
		if filter != nil {
			filter.Add(key)
		}
	}
	s := &Store{
		base:        base,
		deltas:      deltas,
		filter:      filter,
		outlierCost: opts.OutlierCost,
		diag:        diag,
	}
	s.buildRowIndex()
	if len(zeroRows) > 0 {
		if err := s.installZeroRows(zeroRows, opts.BloomFP); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildRowIndex derives the row index from the hash table with one counting
// sort by row: count into rowStart, prefix-sum, scatter. The map hands the
// cells over in no particular order, so each bucket is then sorted by
// column.
func (s *Store) buildRowIndex() {
	n, m := s.base.Dims()
	start := make([]uint32, n+2)
	for key := range s.deltas {
		start[key/uint64(m)+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	// start[i+1] is now row i's first slot; scattering advances it to row
	// i's end, which is where row i+1 starts — start[:n+1] ends up the
	// offsets.
	s.cols = make([]int32, len(s.deltas))
	s.vals = make([]float64, len(s.deltas))
	for key, d := range s.deltas {
		at := &start[key/uint64(m)+1]
		s.cols[*at], s.vals[*at] = int32(key%uint64(m)), d
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
	if hi-lo > 1 {
		sort.Sort(bucket{s.cols[lo:hi], s.vals[lo:hi]})
	}
}

// bucket is one row's stretch of the row index, sortable by column.
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

// installZeroRows builds the zero-row structures from a sorted id list.
func (s *Store) installZeroRows(zeroRows []int32, bloomFP float64) error {
	s.zeroList = zeroRows
	s.zeroSet = make(map[int32]struct{}, len(zeroRows))
	for _, r := range zeroRows {
		s.zeroSet[r] = struct{}{}
	}
	if bloomFP >= 0 {
		fp := bloomFP
		if fp == 0 {
			fp = DefaultBloomFP
		}
		zf, err := bloom.New(len(zeroRows)+1, fp)
		if err != nil {
			return fmt.Errorf("core: zero-row bloom filter: %w", err)
		}
		for _, r := range zeroRows {
			zf.Add(uint64(r))
		}
		s.zeroFilter = zf
	}
	return nil
}

// isZeroRow reports whether row i was flagged as all-zero.
func (s *Store) isZeroRow(i int) bool {
	if s.zeroSet == nil {
		return false
	}
	if s.zeroFilter != nil && !s.zeroFilter.Contains(uint64(i)) {
		return false
	}
	_, ok := s.zeroSet[int32(i)]
	return ok
}

// Dims returns the dimensions of the represented matrix.
func (s *Store) Dims() (int, int) { return s.base.Dims() }

// Method returns store.MethodSVDD.
func (s *Store) Method() store.Method { return store.MethodSVDD }

// K returns the chosen cutoff k_opt.
func (s *Store) K() int { return s.base.K() }

// NumOutliers returns the number of stored deltas.
func (s *Store) NumOutliers() int { return len(s.deltas) }

// Diagnostics returns what the k_opt search of pass 2 decided.
func (s *Store) Diagnostics() Diagnostics { return s.diag }

// Base exposes the underlying plain-SVD store (shared, do not modify); the
// query package uses it for factored aggregation.
func (s *Store) Base() *svd.Store { return s.base }

// SliceRows returns a store over rows [lo, hi) of the same compression:
// the SVD base is sliced (shared σ/V, copied U rows), the deltas falling in
// the range are re-keyed to local row indices, and zero-row flags are
// shifted likewise. Reconstruction of slice cell (i−lo, j) is bit-identical
// to the parent's cell (i, j); this is how the distributed tier builds
// shard stores that are exact row partitions of one factorization.
func (s *Store) SliceRows(lo, hi int) (*Store, error) {
	base, err := s.base.SliceRows(lo, hi)
	if err != nil {
		return nil, err
	}
	var items []pqueue.Item
	s.Deltas(func(row, col int, delta float64) {
		if row >= lo && row < hi {
			items = append(items, pqueue.Item{Row: row - lo, Col: col, Delta: delta})
		}
	})
	var zeroRows []int32
	for _, zr := range s.zeroList {
		if int(zr) >= lo && int(zr) < hi {
			zeroRows = append(zeroRows, zr-int32(lo))
		}
	}
	bloomFP := -1.0
	if s.filter != nil || s.zeroFilter != nil {
		bloomFP = DefaultBloomFP
	}
	return newStore(base, items, zeroRows, Options{
		BloomFP:     bloomFP,
		OutlierCost: s.outlierCost,
	}, s.diag)
}

// Deltas iterates over all stored outliers in unspecified order.
func (s *Store) Deltas(fn func(row, col int, delta float64)) {
	_, m := s.base.Dims()
	for key, d := range s.deltas {
		fn(int(key/uint64(m)), int(key%uint64(m)), d)
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

// DeltaSlab is the row index over a run of consecutive rows: one
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

// ProbeStats reports how many delta-table probes were performed and how many
// were avoided by the Bloom filter, for the ablation bench.
func (s *Store) ProbeStats() (probes, bloomSaves int64) {
	return s.probes.Load(), s.bloomSaves.Load()
}

// RowProbes reports how many per-row bucket lookups the row index served
// (row reconstructions and selection-restricted aggregate corrections).
func (s *Store) RowProbes() int64 { return s.rowProbes.Load() }

// delta returns the stored correction for cell (i, j), or 0.
func (s *Store) delta(i, j int) float64 {
	_, m := s.base.Dims()
	key := bloom.CellKey(i, j, m)
	if s.filter != nil && !s.filter.Contains(key) {
		s.bloomSaves.Add(1)
		return 0
	}
	s.probes.Add(1)
	return s.deltas[key]
}

// Cell reconstructs x̂[i][j]: the plain-SVD value plus the delta when the
// cell is a stored outlier (in which case the reconstruction is exact).
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
	return v + s.delta(i, j), nil
}

// Row reconstructs row i, applying any deltas that fall in it. Deltas come
// from the per-row bucket index — O(outliers-in-row) instead of M hash
// probes per row — with values identical to the per-cell path.
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

// ZeroHits reports how many lookups were answered by the zero-row flags.
func (s *Store) ZeroHits() int64 { return s.zeroHits.Load() }

// SetPrecision selects b, the bytes per stored number at serialization
// time (4 or 8), for the SVD part and the delta values alike. Quantized
// deltas repair outliers to float32 accuracy instead of exactly.
func (s *Store) SetPrecision(bytes int) error { return s.base.SetPrecision(bytes) }

// Precision returns b, the bytes per stored number.
func (s *Store) Precision() int { return s.base.Precision() }

// StoredBytes returns StoredNumbers()·b.
func (s *Store) StoredBytes() int64 { return s.StoredNumbers() * int64(s.Precision()) }

// StoredNumbers returns the plain-SVD cost plus OutlierCost numbers per
// stored delta plus one number per flagged zero row. The optional Bloom
// filters are main-memory acceleration structures and, as in the paper,
// are not charged against the space budget.
func (s *Store) StoredNumbers() int64 {
	return s.base.StoredNumbers() +
		int64(len(s.deltas))*int64(s.outlierCost) +
		int64(len(s.zeroList))
}

// EncodePayload serializes the base store, the delta table (sorted by key
// for determinism), the diagnostics, and the Bloom filter.
func (s *Store) EncodePayload(w *store.Writer) error {
	if err := s.base.EncodePayload(w); err != nil {
		return err
	}
	w.U32(uint32(s.outlierCost))
	keys := make([]uint64, 0, len(s.deltas))
	for k := range s.deltas {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U64(uint64(len(keys)))
	prec := s.base.Precision()
	for _, k := range keys {
		w.U64(k)
		w.FP(s.deltas[k], prec)
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
	// Bloom filter (presence flag + bytes).
	if s.filter != nil {
		w.U16(1)
		w.ByteSlice(s.filter.Marshal())
	} else {
		w.U16(0)
	}
	// Zero-row flags (§6.2); the Bloom filter over them is rebuilt on load.
	w.I32Slice(s.zeroList)
	if s.zeroFilter != nil {
		w.U16(1)
	} else {
		w.U16(0)
	}
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
	deltas := make(map[uint64]float64, nd)
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
		deltas[key] = val
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
	var filter *bloom.Filter
	if r.U16() == 1 {
		raw := r.ByteSlice()
		if err := r.Err(); err != nil {
			return nil, err
		}
		filter, err = bloom.Unmarshal(raw)
		if err != nil {
			return nil, fmt.Errorf("core: decode bloom: %w", err)
		}
	}
	zeroRows := r.I32Slice()
	zeroHadBloom := r.U16() == 1
	if err := r.Err(); err != nil {
		return nil, err
	}
	s := &Store{
		base:        baseStore,
		deltas:      deltas,
		filter:      filter,
		outlierCost: outlierCost,
		diag:        diag,
	}
	s.buildRowIndex()
	if len(zeroRows) > 0 {
		for _, zr := range zeroRows {
			if zr < 0 || int(zr) >= n {
				return nil, fmt.Errorf("%w: zero row %d outside %d rows", store.ErrCorrupt, zr, n)
			}
		}
		fp := DefaultBloomFP
		if !zeroHadBloom {
			fp = -1
		}
		if err := s.installZeroRows(zeroRows, fp); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func init() {
	store.RegisterCodec(store.MethodSVDD, decode)
}

var _ store.Encoder = (*Store)(nil)
