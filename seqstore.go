// Package seqstore compresses large datasets of time sequences into a
// format that still supports ad hoc queries, implementing Korn, Jagadish &
// Faloutsos, "Efficiently Supporting Ad Hoc Queries in Large Datasets of
// Time Sequences" (SIGMOD 1997).
//
// A dataset of N sequences of length M is an N×M matrix. seqstore
// compresses it with one of four methods — the paper's SVDD ("SVD with
// deltas", the recommended method), plain truncated SVD, per-row DCT, or
// hierarchical-clustering vector quantization — into a Store that
// reconstructs any single cell in O(k) time with one row access,
// independent of N and M, and answers aggregate queries over arbitrary
// row/column selections.
//
// Quick start:
//
//	x := seqstore.GeneratePhone(2000) // or load your own matrix
//	st, err := seqstore.Compress(x, seqstore.Options{
//		Method: seqstore.SVDD,
//		Budget: 0.10, // compressed size ≤ 10% of the original
//	})
//	v, err := st.Cell(42, 180)                   // one customer, one day
//	avg, err := st.Aggregate(seqstore.Avg, rows, cols) // decision support
package seqstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"seqstore/internal/core"
	"seqstore/internal/dct"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/robust"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/vq"
	"seqstore/internal/wavelet"
)

// Method selects a compression algorithm.
type Method string

// Available methods.
const (
	// SVDD is the paper's proposed method: truncated SVD plus explicit
	// deltas for the worst-reconstructed cells, bounding worst-case error.
	SVDD Method = "svdd"
	// SVD is plain truncated singular value decomposition.
	SVD Method = "svd"
	// DCT keeps the k lowest-frequency cosine coefficients of each row.
	DCT Method = "dct"
	// Cluster is vector quantization by hierarchical clustering; it holds
	// the whole matrix in memory and is quadratic in N.
	Cluster Method = "cluster"
	// KMeans is vector quantization by k-means (the faster, approximate
	// clustering the paper mentions in §2.2). The resulting store has the
	// same shape as Cluster's.
	KMeans Method = "kmeans"
	// Wavelet keeps the k largest-magnitude Haar coefficients of each row
	// (the other spectral method of §2.3); cells reconstruct in O(log M).
	Wavelet Method = "wavelet"
)

// Options configures Compress. For SVD and SVDD the matrix's shape and
// the rank the budget affords choose the factor algorithm: the paper's
// M×M Gram pass, or a randomized sketch that never builds it, on a matrix
// at least svd.SketchMinCols wide where the sketch would take at most half
// the Gram pass's time (svd.FactorsByWidth).
type Options struct {
	// Method selects the algorithm; default SVDD.
	Method Method
	// Budget is the target compressed size as a fraction of the raw
	// matrix, e.g. 0.10 for 10:1 compression. Required unless K is set.
	Budget float64
	// K, when > 0, directly fixes the number of components (SVD/DCT), the
	// number of clusters (Cluster), or forces SVDD's cutoff, overriding
	// the Budget-derived value.
	K int
	// CandidateKs restricts SVDD's k_opt search (advanced; see DESIGN.md).
	CandidateKs []int
	// FlagZeroRows enables the §6.2 optimization for SVDD: all-zero
	// sequences are flagged so their cells reconstruct with no U access.
	FlagZeroRows bool
	// Robust computes outlier-resistant factors (iterative trimming)
	// before SVD/SVDD compression — the paper's future-work direction (b).
	// Requires holding the matrix in memory.
	Robust bool
	// HalfPrecision stores numbers as float32 when the store is saved
	// (the paper's b parameter set to 4 bytes instead of 8), halving the
	// on-disk size at a ~1e-7 relative rounding cost. SVD/SVDD only.
	HalfPrecision bool
	// Workers shards the factor pass (SVD/SVDD) and plain SVD's U
	// projection across this many concurrent workers: 0 means
	// runtime.GOMAXPROCS(0), 1 runs them serially. SVDD's scoring pass is
	// always one serial scan. The compressed store is the same for every
	// worker count up to the floating-point reduction order of the factor
	// pass (see DESIGN.md §8). Other methods ignore it.
	Workers int
}

// ErrNoBudget is returned when neither Budget nor K is provided.
var ErrNoBudget = errors.New("seqstore: Options needs Budget or K")

// Matrix is an in-memory N×M dataset of N time sequences of length M.
type Matrix struct {
	m *linalg.Matrix
}

// NewMatrix allocates a zeroed rows×cols dataset.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{m: linalg.NewMatrix(rows, cols)}
}

// FromRows builds a dataset by copying the given rows (all the same length).
func FromRows(rows [][]float64) *Matrix { return &Matrix{m: linalg.FromRows(rows)} }

// Dims returns (rows, cols).
func (x *Matrix) Dims() (rows, cols int) { return x.m.Dims() }

// At returns the value of cell (i, j).
func (x *Matrix) At(i, j int) float64 { return x.m.At(i, j) }

// Set assigns the value of cell (i, j).
func (x *Matrix) Set(i, j int, v float64) { x.m.Set(i, j, v) }

// SetRow copies row into row i.
func (x *Matrix) SetRow(i int, row []float64) {
	copy(x.m.Row(i), row)
}

// Row returns a copy of row i.
func (x *Matrix) Row(i int) []float64 {
	out := make([]float64, x.m.Cols())
	copy(out, x.m.Row(i))
	return out
}

// Head returns a new Matrix containing the first n rows.
func (x *Matrix) Head(n int) *Matrix {
	if n > x.m.Rows() {
		n = x.m.Rows()
	}
	out := linalg.NewMatrix(n, x.m.Cols())
	for i := 0; i < n; i++ {
		copy(out.Row(i), x.m.Row(i))
	}
	return &Matrix{m: out}
}

// SaveMatrix writes the dataset to path in the binary .smx format.
func SaveMatrix(path string, x *Matrix) error { return matio.WriteMatrix(path, x.m) }

// LoadMatrix reads a .smx dataset fully into memory. Failures name the file
// and, for checksum or truncation damage, the page and byte offset (see
// CorruptError).
func LoadMatrix(path string) (*Matrix, error) {
	m, err := matio.ReadMatrix(path)
	if err != nil {
		return nil, seqerr.FillPath(err, path)
	}
	return &Matrix{m: m}, nil
}

// Store is a compressed, randomly accessible representation of a dataset.
//
// A Store is safe for concurrent use: reads (Cell, Row, Aggregate*, Save)
// take a shared lock, and the mutating operations (FoldIn, SetLabels) take
// it exclusively, so a fold-in never races an in-flight query. The online
// ingestion tier (internal/ingest, served by seqserver's /v1/bulk) builds
// on the same primitives with its own write-ahead log and compactor.
type Store struct {
	mu     sync.RWMutex
	s      store.Store
	labels *store.Labels
	// lazily built label → index maps, guarded by mu
	rowIndex, colIndex map[string]int
}

// Compress builds a compressed store from an in-memory dataset.
func Compress(x *Matrix, opts Options) (*Store, error) {
	return CompressContext(context.Background(), x, opts)
}

// CompressContext is Compress with cancellation: the pipeline checks ctx
// between compression stages and returns ctx.Err() once it fires.
func CompressContext(ctx context.Context, x *Matrix, opts Options) (*Store, error) {
	return compress(ctx, matio.NewMem(x.m), x.m, opts)
}

// CompressFile builds a compressed store by streaming a .smx file, never
// holding the full dataset in memory (except for the Cluster method, which
// is inherently in-memory).
func CompressFile(path string, opts Options) (*Store, error) {
	return CompressFileContext(context.Background(), path, opts)
}

// CompressFileContext is CompressFile with cancellation, checked between
// compression stages.
func CompressFileContext(ctx context.Context, path string, opts Options) (*Store, error) {
	f, err := matio.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var full *linalg.Matrix
	if opts.Method == Cluster || opts.Method == KMeans || opts.Robust {
		full, err = matio.ReadMatrix(path)
		if err != nil {
			return nil, seqerr.FillPath(err, path)
		}
	}
	return compress(ctx, f, full, opts)
}

func compress(ctx context.Context, src matio.RowSource, full *linalg.Matrix, opts Options) (*Store, error) {
	if opts.Method == "" {
		opts.Method = SVDD
	}
	if opts.Budget <= 0 && opts.K <= 0 {
		return nil, ErrNoBudget
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, m := src.Dims()
	var (
		s   store.Encoder
		err error
	)
	// Robust factor computation (future work (b)) needs the full matrix.
	var robustFactors *svd.Factors
	if opts.Robust {
		if opts.Method != SVD && opts.Method != SVDD {
			return nil, fmt.Errorf("seqstore: Robust applies only to svd/svdd, not %s", opts.Method)
		}
		if full == nil {
			return nil, errors.New("seqstore: Robust compression needs the full matrix in memory")
		}
		k := opts.K
		if k <= 0 {
			k = svd.KForBudget(n, m, opts.Budget)
		}
		if k < 1 {
			k = 1
		}
		robustFactors, err = robust.Factors(full, robust.Options{K: k})
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	switch opts.Method {
	case SVDD:
		budget := opts.Budget
		if budget <= 0 {
			// Derive a budget from K: the SVD cost of K components plus
			// 20% slack for deltas.
			budget = 1.2 * float64(svd.StoredNumbers(n, m, opts.K)) / (float64(n) * float64(m))
			if budget > 1 {
				budget = 1
			}
		}
		o := core.Options{
			Budget:       budget,
			ForceK:       0,
			CandidateKs:  opts.CandidateKs,
			FlagZeroRows: opts.FlagZeroRows,
			Workers:      opts.Workers,
		}
		if opts.K > 0 && opts.Budget > 0 {
			o.ForceK = opts.K
		}
		if robustFactors != nil {
			s, err = core.CompressWithFactors(src, robustFactors, o)
		} else {
			s, err = core.Compress(src, o)
		}
	case SVD:
		k := opts.K
		if k <= 0 {
			k = svd.KForBudget(n, m, opts.Budget)
		}
		var base *svd.Store
		if robustFactors != nil {
			base, err = svd.CompressWithFactorsWorkers(src, robustFactors, k, opts.Workers)
		} else {
			base, err = svd.CompressByWidth(src, k, opts.Workers)
		}
		if err == nil {
			s = core.Plain(base)
		}
	case DCT:
		k := opts.K
		if k <= 0 {
			k = dct.KForBudget(m, opts.Budget)
		}
		s, err = dct.Compress(src, k)
	case Wavelet:
		t := opts.K
		if t <= 0 {
			t = wavelet.TForBudget(m, opts.Budget)
		}
		s, err = wavelet.Compress(src, t)
	case Cluster, KMeans:
		if full == nil {
			return nil, fmt.Errorf("seqstore: %s method needs the full matrix in memory", opts.Method)
		}
		c := opts.K
		if c <= 0 {
			c = vq.CForBudget(n, m, opts.Budget)
		}
		if c < 1 {
			return nil, fmt.Errorf("seqstore: budget %.4f cannot fit any cluster representative", opts.Budget)
		}
		if opts.Method == KMeans {
			var labels []int32
			labels, err = vq.KMeans(full, c, 100, 1)
			if err != nil {
				return nil, err
			}
			s, err = vq.NewStore(full, labels, c)
		} else {
			s, err = vq.Compress(full, c)
		}
	default:
		return nil, fmt.Errorf("seqstore: unknown method %q", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := &Store{s: s}
	if opts.HalfPrecision {
		c := st.factored()
		if c == nil {
			return nil, fmt.Errorf("seqstore: HalfPrecision applies only to svd/svdd, not %s", opts.Method)
		}
		if err := c.SetPrecision(4); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Open loads a compressed store saved with Save, including any labels.
// Failures name the file; damage in a checksummed (v2) container surfaces
// as ErrCorrupt with the frame and byte offset (see CorruptError), never as
// silently wrong data.
func Open(path string) (*Store, error) {
	return OpenContext(context.Background(), path)
}

// OpenContext is Open with cancellation, checked before the read starts.
func OpenContext(ctx context.Context, path string) (*Store, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seqstore: open: %w", err)
	}
	defer f.Close()
	s, labels, err := store.ReadLabeled(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, seqerr.FillPath(fmt.Errorf("seqstore: open %s: %w", path, err), path)
	}
	return &Store{s: s, labels: labels}, nil
}

// Save writes the store (and any labels) to path in the .sqz container
// format, atomically: the container goes to a temporary file that is
// fsynced and renamed over path only once complete, so a crash mid-save
// leaves either the old file or the new one — never a partial container.
// Saving re-validates any row/column labels against the store's current
// dimensions first, so label drift (e.g. from a fold-in that bypassed the
// facade) is caught at save time rather than surfacing as a corrupt-looking
// container on reopen.
func (st *Store) Save(path string) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	enc, ok := st.s.(store.Encoder)
	if !ok {
		return fmt.Errorf("seqstore: %s store is not serializable", st.s.Method())
	}
	rows, cols := st.s.Dims()
	if err := st.labels.Validate(rows, cols); err != nil {
		return fmt.Errorf("seqstore: save: %w", err)
	}
	return store.SaveLabeled(path, enc, st.labels)
}

// Dims returns the dimensions of the represented dataset.
func (st *Store) Dims() (rows, cols int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.s.Dims()
}

// Method reports which algorithm produced this store.
func (st *Store) Method() Method { return Method(st.s.Method().String()) }

// Cell reconstructs the value of cell (i, j). For SVDD the result is exact
// whenever the cell was stored as an outlier delta.
func (st *Store) Cell(i, j int) (float64, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.s.Cell(i, j)
}

// Row reconstructs all of sequence i.
func (st *Store) Row(i int) ([]float64, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.s.Row(i, nil)
}

// SpaceRatio returns the compressed size as a fraction of the raw dataset
// (the paper's s).
func (st *Store) SpaceRatio() float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return store.SpaceRatio(st.s)
}

// StoredNumbers returns the compressed size in stored numbers.
func (st *Store) StoredNumbers() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.s.StoredNumbers()
}

// internalStore exposes the wrapped store to sibling files in this package.
func (st *Store) internalStore() store.Store { return st.s }
