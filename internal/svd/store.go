package svd

import (
	"fmt"
	"sync"

	"seqstore/internal/exact"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
)

// Store is the plain-SVD compressed representation: the k singular values
// and V are pinned in memory (k + k·M numbers, small), while the N×k matrix
// U is accessed row-wise through a matio.RowReader so it can live on disk.
// Reconstructing a cell costs one U-row access plus O(k) arithmetic
// (Eq. 12), independent of N and M — the paper's random-access property.
type Store struct {
	rows, cols int
	sigma      []float64
	v          *linalg.Matrix // cols×k
	u          matio.RowReader
	// prec is b, the bytes stored per number (§5.1 parameterizes space as
	// b bytes per stored number): 8 (float64, default) or 4 (float32,
	// lossy on serialization).
	prec int
	// moments indexes U's exact row moments per aligned block of
	// exact.BlockRows rows (RowMoments). It is built wherever a store is
	// made, extended by FoldIn, and never persisted.
	moments exact.Blocks
}

// Compress builds a plain-SVD store with cutoff k from src, making exactly
// two serial passes. k is clamped to the numerical rank.
func Compress(src matio.RowSource, k int) (*Store, error) {
	return CompressWorkers(src, k, 1)
}

// CompressWorkers is Compress with both passes sharded across workers
// (0 ⇒ GOMAXPROCS, 1 ⇒ serial).
func CompressWorkers(src matio.RowSource, k, workers int) (*Store, error) {
	f, err := ComputeFactorsWorkers(src, workers)
	if err != nil {
		return nil, err
	}
	return CompressWithFactorsWorkers(src, f, k, workers)
}

// CompressWithFactorsWorkers runs only pass 2, sharded across workers,
// reusing factors computed earlier (e.g. shared between several cutoffs, or
// with SVDD's pass 1).
func CompressWithFactorsWorkers(src matio.RowSource, f *Factors, k, workers int) (*Store, error) {
	k = f.Clamp(k)
	n, _ := src.Dims()
	u := linalg.NewMatrix(n, k)
	err := ComputeUWorkers(src, f, k, workers, func(i int, urow []float64) error {
		copy(u.Row(i), urow)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return New(f, k, matio.NewMem(u))
}

// New assembles a store from factors truncated to k and a U-row provider
// with dimensions N×k. Use matio.NewMem for in-memory U or a matio.File for
// a disk-resident U.
func New(f *Factors, k int, u matio.RowReader) (*Store, error) {
	k = f.Clamp(k)
	un, uk := u.Dims()
	if uk != k {
		return nil, fmt.Errorf("svd: U has %d columns, want k=%d", uk, k)
	}
	v := linalg.NewMatrix(f.Cols, k)
	for i := 0; i < f.Cols; i++ {
		copy(v.Row(i), f.V.Row(i)[:k])
	}
	sigma := make([]float64, k)
	copy(sigma, f.Sigma[:k])
	return indexed(&Store{rows: un, cols: f.Cols, sigma: sigma, v: v, u: u, prec: 8})
}

// indexed builds s's moment index over every whole block of U and returns
// s. A U on disk is read once for it, block by block.
func indexed(s *Store) (*Store, error) {
	nb := s.rows / exact.BlockRows
	s.moments = exact.NewBlocks(len(s.sigma), nb)
	var scratch []float64
	for b := 0; b < nb; b++ {
		rows, err := s.URows(b*exact.BlockRows, (b+1)*exact.BlockRows, &scratch, false)
		if err != nil {
			return nil, fmt.Errorf("svd: index U block %d: %w", b, err)
		}
		s.moments.Append(rows)
	}
	return s, nil
}

// RowMoments returns the index of U's exact row moments: block b is U rows
// [b·exact.BlockRows, (b+1)·exact.BlockRows) as an exact.Stage would stage
// them with the Gram, for exact.(*Stage).AddBlock. Read-only; FoldIn
// extends it when a block fills.
func (s *Store) RowMoments() *exact.Blocks { return &s.moments }

// Dims returns the dimensions of the represented matrix.
func (s *Store) Dims() (int, int) { return s.rows, s.cols }

// SliceRows returns a store over rows [lo, hi) of the same factorization:
// σ and V are shared (bitwise identical, not recomputed), and the slice's
// U holds copies of the parent's rows lo…hi−1, re-indexed from 0. Because
// nothing is refactored, slice.Cell(i−lo, j) reconstructs bit-identically
// to parent.Cell(i, j) — the property the distributed tier's shard stores
// rely on for exact scatter/gather.
func (s *Store) SliceRows(lo, hi int) (*Store, error) {
	if lo < 0 || hi < lo || hi > s.rows {
		return nil, fmt.Errorf("svd: slice [%d, %d) outside %d rows (%w)", lo, hi, s.rows, seqerr.ErrOutOfRange)
	}
	k := len(s.sigma)
	u := linalg.NewMatrix(hi-lo, k)
	for i := lo; i < hi; i++ {
		if err := s.u.ReadRow(i, u.Row(i-lo)); err != nil {
			return nil, fmt.Errorf("svd: slice U row %d: %w", i, err)
		}
	}
	return indexed(&Store{rows: hi - lo, cols: s.cols, sigma: s.sigma, v: s.v, u: matio.NewMem(u), prec: s.prec})
}

// SetPrecision selects b, the bytes per stored number used when the store
// is serialized: 8 (exact) or 4 (float32; values round-trip with ~1e-7
// relative rounding). The in-memory store always computes in float64.
func (s *Store) SetPrecision(bytes int) error {
	if bytes != 4 && bytes != 8 {
		return fmt.Errorf("svd: precision must be 4 or 8 bytes, got %d", bytes)
	}
	s.prec = bytes
	return nil
}

// Precision returns b, the bytes per stored number (4 or 8).
func (s *Store) Precision() int { return s.prec }

// Round returns v as the store's file holds it: rounded to float32 at
// b = 4, unchanged at b = 8. Numbers added to a loaded store go through it,
// so the store serves what a reload of its file would.
func (s *Store) Round(v float64) float64 {
	if s.prec == 4 {
		return float64(float32(v))
	}
	return v
}

// StoredBytes returns the serialized size of the numeric payload:
// StoredNumbers()·b.
func (s *Store) StoredBytes() int64 { return s.StoredNumbers() * int64(s.prec) }

// Method returns store.MethodSVD.
func (s *Store) Method() store.Method { return store.MethodSVD }

// K returns the number of retained principal components.
func (s *Store) K() int { return len(s.sigma) }

// Sigma returns the retained singular values (shared slice; do not modify).
func (s *Store) Sigma() []float64 { return s.sigma }

// V returns the cols×k right-singular-vector matrix (shared; do not modify).
func (s *Store) V() *linalg.Matrix { return s.v }

// URow reads row i of U into dst (length k), costing one row access.
func (s *Store) URow(i int, dst []float64) error { return s.u.ReadRow(i, dst) }

// ScanURows calls fn for U rows [start, end) in order, read through URows:
// urow is only valid during the call, and is to be read, not written.
func (s *Store) ScanURows(start, end int, fn func(i int, urow []float64) error) error {
	var scratch []float64
	rows, err := s.URows(start, end, &scratch, true)
	if err != nil {
		return err
	}
	k := len(s.sigma)
	for i := start; i < end; i++ {
		if err := fn(i, rows[(i-start)*k:(i-start+1)*k]); err != nil {
			return err
		}
	}
	return nil
}

// URows returns U rows [start, end) row-major, k numbers per row. A
// resident U (a matio.Mem) hands back its own rows in place, to be read and
// not written, counted on U's read counter when count is set; a caller that
// already counted them reads them again uncounted. A U on disk is read into
// *scratch, grown as needed, and counted, as every read of it is real.
func (s *Store) URows(start, end int, scratch *[]float64, count bool) ([]float64, error) {
	if m, ok := s.u.(*matio.Mem); ok {
		return m.Rows(start, end, count)
	}
	k := len(s.sigma)
	if cap(*scratch) < (end-start)*k {
		*scratch = make([]float64, (end-start)*k)
	}
	rows := (*scratch)[:(end-start)*k]
	for i := start; i < end; i++ {
		if err := s.u.ReadRow(i, rows[(i-start)*k:(i-start+1)*k]); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// UResident reports whether U is held in memory, where URows reads in place.
func (s *Store) UResident() bool {
	_, ok := s.u.(*matio.Mem)
	return ok
}

// UStats exposes the access counters of the U backing, so tests can assert
// the single-access reconstruction property.
func (s *Store) UStats() *matio.Stats {
	type statser interface{ Stats() *matio.Stats }
	if st, ok := s.u.(statser); ok {
		return st.Stats()
	}
	return nil
}

// UPageSpan reports how many distinct backing pages U rows [start, end)
// occupy (one page per row when the backing has no page structure). The
// serving layer charges this to the request cost ledger as pages_touched.
func (s *Store) UPageSpan(start, end int) int {
	return matio.PageSpan(s.u, start, end)
}

// Cell reconstructs x̂[i][j] = Σ_m σ_m·u[i][m]·v[j][m] as the one Dot that
// Row's linalg.DotRows reproduces for column j, so a cell is bit-equal to
// its row's entry.
func (s *Store) Cell(i, j int) (float64, error) {
	if j < 0 || j >= s.cols {
		return 0, fmt.Errorf("svd: column %d out of range %d (%w)", j, s.cols, seqerr.ErrOutOfRange)
	}
	var x float64
	err := s.withURow(i, func(u []float64) { x = linalg.Dot(s.scale(u), s.v.Row(j)) })
	return x, err
}

// Row reconstructs row i with a single U access plus O(k·M) arithmetic
// (rowFrom).
func (s *Store) Row(i int, dst []float64) ([]float64, error) {
	if cap(dst) < s.cols {
		dst = make([]float64, s.cols)
	}
	dst = dst[:s.cols]
	if err := s.withURow(i, func(u []float64) { s.rowFrom(u, dst) }); err != nil {
		return nil, err
	}
	return dst, nil
}

// urowScratch recycles the k-float buffers U rows are read into.
var urowScratch = sync.Pool{New: func() any { return new([]float64) }}

// withURow reads U row i (one access) and hands it to fn, which may scale
// it in place; the slice is only valid during the call.
func (s *Store) withURow(i int, fn func(u []float64)) error {
	buf := urowScratch.Get().(*[]float64)
	defer urowScratch.Put(buf)
	k := len(s.sigma)
	if cap(*buf) < k {
		*buf = make([]float64, k)
	}
	u := (*buf)[:k]
	if err := s.u.ReadRow(i, u); err != nil {
		return err
	}
	fn(u)
	return nil
}

// scale pre-scales U row u by σ in place and returns it: every entry of its
// row is then a plain dot product with a row of V.
func (s *Store) scale(u []float64) []float64 {
	for m := range u {
		u[m] *= s.sigma[m]
	}
	return u
}

// rowFrom reconstructs into dst the row whose U row is u, scaling u in
// place: Row runs it on a U row read back and FoldIn on the one it appends,
// so the two are bit-equal, and each entry is bit-equal to Cell's Dot.
func (s *Store) rowFrom(u, dst []float64) { linalg.DotRows(s.scale(u), s.v.Data(), dst) }

// StoredNumbers returns N·k + k + k·M (Eq. 9).
func (s *Store) StoredNumbers() int64 {
	return StoredNumbers(s.rows, s.cols, len(s.sigma))
}

// EncodePayload serializes the store (precision, rows, cols, k, Σ, V, then
// U row-major), at the configured bytes-per-number.
func (s *Store) EncodePayload(w *store.Writer) error {
	w.U16(uint16(s.prec))
	w.U64(uint64(s.rows))
	w.U64(uint64(s.cols))
	w.U64(uint64(len(s.sigma)))
	w.FPSlice(s.sigma, s.prec)
	w.FPSlice(s.v.Data(), s.prec)
	urow := make([]float64, len(s.sigma))
	for i := 0; i < s.rows; i++ {
		if err := s.u.ReadRow(i, urow); err != nil {
			return fmt.Errorf("svd: encode U row %d: %w", i, err)
		}
		w.FPSlice(urow, s.prec)
	}
	return w.Err()
}

// DecodePayload reads the svd payload section written by EncodePayload. The
// method-SVD and SVDD codecs both live in internal/core: an SVDD payload
// embeds this one, and a method-SVD store loads as a core store with no
// deltas.
func DecodePayload(r *store.Reader) (*Store, error) {
	prec := int(r.U16())
	rows := int(r.U64())
	cols := int(r.U64())
	k := int(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if (prec != 4 && prec != 8) || rows < 0 || cols < 0 || k < 0 || k > cols ||
		!store.DimsSane(rows, cols, k) {
		return nil, fmt.Errorf("%w: svd header inconsistent", store.ErrCorrupt)
	}
	sigma := make([]float64, k)
	for i := range sigma {
		sigma[i] = r.FP(prec)
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	vdata := make([]float64, cols*k)
	for i := range vdata {
		vdata[i] = r.FP(prec)
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	v := linalg.NewMatrixFrom(cols, k, vdata)
	u := linalg.NewMatrix(rows, k)
	for i := 0; i < rows; i++ {
		urow := u.Row(i)
		for j := range urow {
			urow[j] = r.FP(prec)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	return indexed(&Store{rows: rows, cols: cols, sigma: sigma, v: v, u: matio.NewMem(u), prec: prec})
}

var _ store.Encoder = (*Store)(nil)
