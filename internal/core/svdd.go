// Package core implements SVDD — "SVD with Deltas" — the paper's proposed
// enhancement (§4.2): trade retained principal components against a budget
// of per-cell outlier deltas so that the worst-reconstructed cells are
// repaired exactly, bounding the worst-case error.
//
// Compression follows the algorithm of Figure 5 in two streaming passes —
// the paper's third, a separate scan that emits U, is fused into the second:
//
//	pass 1  stream X once to build C = XᵀX; eigendecompose for Λ and V,
//	        keeping k_max components; size the outlier budgets γ_k. (A
//	        wide matrix may be sketched instead: svd.FactorsByWidth.)
//	pass 2  stream X again; for every cell compute its reconstruction error
//	        under every candidate cutoff k (incremental partial sums make
//	        this O(k_max) per cell); feed one bounded top-γ_k collection
//	        per candidate k; accumulate the total squared error SSE_k; keep
//	        the row's projection, which is its U row at k_max.
//	        Choose k_opt = argmin_k ε_k where ε_k = SSE_k − Σ(top-γ_k
//	        errors²), i.e. the residual error after the γ_k worst cells
//	        are repaired, and truncate the buffered U to k_opt.
//
// The resulting Store keeps Λ, V and the delta index (the paper's hash
// table, here a (row, col)-ordered CSR) in memory, and reads U row-wise
// (possibly from disk): a cell reconstruction costs one U-row access, O(k)
// arithmetic, and one binary search of the row's delta bucket. The paper's
// membership filter in front of the table (§4.2 "Data structures") screens
// a disk-resident table; an in-memory one needs no screen.
package core

import (
	"errors"
	"fmt"
	"sort"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/svd"
)

// DefaultOutlierCost is the space cost of one delta triplet
// (row, column, delta) in stored numbers.
const DefaultOutlierCost = 3

// DefaultMaxQueueItems caps the total capacity of the pass-2 priority
// queues. When evaluating every k in 1..k_max would exceed this, the
// candidate set is thinned to an evenly spaced grid (the endpoints are
// always kept). This is an engineering bound the paper does not discuss; it
// keeps pass-2 memory proportional to the cap rather than to k_max·γ_1.
const DefaultMaxQueueItems = 2 << 20

// Options configures SVDD compression.
type Options struct {
	// Budget is the allowed space as a fraction of the raw N·M numbers.
	// Required: must be in (0, 1].
	Budget float64
	// OutlierCost is the per-delta space cost in numbers (default 3).
	OutlierCost int
	// ForceK, when > 0, skips the k_opt search and uses this cutoff with
	// whatever outlier budget remains. Used by the ablation experiments.
	ForceK int
	// CandidateKs, when non-empty, restricts the k_opt search to these
	// cutoffs (clamped to [1, k_max]).
	CandidateKs []int
	// MaxQueueItems caps total pass-2 queue capacity (default
	// DefaultMaxQueueItems).
	MaxQueueItems int
	// FlagZeroRows enables the §6.2 "engineering solution": rows that are
	// entirely zero (customers with no activity) are flagged in an exact
	// bitset, so reconstructing their cells needs no U access at all. Each flagged row costs one stored number, paid for out of
	// the outlier budget.
	FlagZeroRows bool
	// Workers shards the row scans of the factor pass (pass 1): 0 means
	// runtime.GOMAXPROCS(0), 1 runs it serially. Pass 2 is always one
	// serial scan (see pass2.go), so for given factors the store is
	// byte-identical at every worker count; the factors themselves are
	// deterministic for a given worker count and agree across counts to
	// reduction-order tolerance.
	Workers int
	// Compressor forces the pass-1 factor algorithm: svd.CompressorGram or
	// svd.CompressorRandomized (the single-pass sketch).
	//
	// Deprecated: leave it empty; the source's shape and the budget's rank
	// choose the algorithm (svd.FactorsByWidth). It remains for the
	// benchmark module, which times the sketch at M = 366.
	Compressor string
}

// CandidateStat records the pass-2 evaluation of one candidate cutoff.
type CandidateStat struct {
	K     int     // cutoff evaluated
	Gamma int     // outliers affordable at this cutoff
	SSE   float64 // total squared error with k components, no deltas
	Eps   float64 // residual squared error after repairing the top-γ cells
}

// Diagnostics describes what the k_opt search of pass 2 decided.
type Diagnostics struct {
	KMax       int             // largest cutoff that fit the budget
	ChosenK    int             // the selected k_opt
	Gamma      int             // outliers stored
	Candidates []CandidateStat // per-candidate evaluation, ascending K
}

// Compression errors.
var (
	ErrBadBudget      = errors.New("core: budget must be in (0, 1]")
	ErrBudgetTooSmall = errors.New("core: budget cannot fit a single principal component")
	ErrBadCompressor  = errors.New("core: unknown compressor")
)

// Compress runs the SVDD algorithm over src: one factor pass, then the
// fused scoring+emission pass — two streaming passes, one fewer than the
// paper's Figure 5, whose separate U projection scan (pass 3) the fused
// pass reproduces bit for bit.
func Compress(src matio.RowSource, opts Options) (*Store, error) {
	if opts.Budget <= 0 || opts.Budget > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, opts.Budget)
	}
	// ---- pass 1: factors -------------------------------------------------
	// A sketch's rank must be fixed before the factors exist: use the
	// largest cutoff the budget could possibly afford (k_max), so the
	// factors cover every candidate pass 2 may evaluate.
	rank, err := budgetRank(src, opts)
	if err != nil {
		return nil, err
	}
	var f *svd.Factors
	if opts.Compressor == "" {
		f, err = svd.FactorsByWidth(src, rank, opts.Workers)
	} else {
		f, err = forcedFactors(src, rank, opts)
	}
	if err != nil {
		return nil, err
	}
	return CompressWithFactors(src, f, opts)
}

// forcedFactors honours the deprecated Options.Compressor.
func forcedFactors(src matio.RowSource, rank int, opts Options) (*svd.Factors, error) {
	switch opts.Compressor {
	case svd.CompressorGram:
		return svd.ComputeFactorsWorkers(src, opts.Workers)
	case svd.CompressorRandomized:
		return svd.ComputeFactorsRandWorkers(src, svd.RandOptions{
			Rank:       rank,
			PowerIters: svd.SVDDPowerIters,
			Workers:    opts.Workers,
		})
	}
	return nil, fmt.Errorf("%w: %q", ErrBadCompressor, opts.Compressor)
}

// kMax returns the largest cutoff k ≤ limit whose plain-SVD representation
// of an n×m matrix fits the budget (a fraction of the raw n·m numbers).
func kMax(n, m, limit int, budget float64) (int, error) {
	budgetNums := budget * float64(n) * float64(m)
	k := 0
	for k < limit && float64(svd.StoredNumbers(n, m, k+1)) <= budgetNums {
		k++
	}
	if k == 0 {
		return 0, fmt.Errorf("%w: budget %.4f of %d×%d", ErrBudgetTooSmall, budget, n, m)
	}
	return k, nil
}

// budgetRank returns the largest cutoff whose plain-SVD representation fits
// the budget — the rank a sketch must recover.
func budgetRank(src matio.RowSource, opts Options) (int, error) {
	n, m := src.Dims()
	if n == 0 || m == 0 {
		return 0, svd.ErrEmptyMatrix
	}
	rank, err := kMax(n, m, m, opts.Budget)
	if err != nil {
		return 0, err
	}
	if opts.ForceK > 0 && opts.ForceK < rank {
		rank = opts.ForceK
	}
	return rank, nil
}

// CompressWithFactors runs pass 2 with factors computed earlier. When
// sweeping many budgets over the same dataset (as the experiments do),
// computing the factors once and reusing them here avoids repeating pass 1.
func CompressWithFactors(src matio.RowSource, f *svd.Factors, opts Options) (*Store, error) {
	if opts.Budget <= 0 || opts.Budget > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, opts.Budget)
	}
	if opts.OutlierCost <= 0 {
		opts.OutlierCost = DefaultOutlierCost
	}
	if opts.MaxQueueItems <= 0 {
		opts.MaxQueueItems = DefaultMaxQueueItems
	}
	n, m := src.Dims()
	if f.Cols != m {
		return nil, fmt.Errorf("core: factors are for %d columns, source has %d (%w)", f.Cols, m, seqerr.ErrOutOfRange)
	}
	kmax, err := kMax(n, m, f.Rank(), opts.Budget)
	if err != nil {
		return nil, err
	}
	budgetNums := opts.Budget * float64(n) * float64(m)
	gamma := func(k int) int {
		g := int((budgetNums - float64(svd.StoredNumbers(n, m, k))) / float64(opts.OutlierCost))
		if g < 0 {
			g = 0
		}
		return g
	}
	candidates := chooseCandidates(opts, kmax, gamma)

	// ---- pass 2: per-candidate error queues + fused U emission -----------
	// The scoring scan already computes σ_m·u[i][m] for every row (the
	// projections the per-candidate errors are built from), so we emit U
	// at k_max during the same scan and skip the paper's pass 3 entirely.
	// The N×k_max buffer is bounded by the budget: N·k_max numbers ≤
	// Budget·N·M, the size of the compressed store itself.
	ubuf := linalg.NewMatrix(n, kmax)
	st, zeroRows, err := runPass2(src, f, opts, kmax, candidates, gamma, ubuf)
	if err != nil {
		return nil, fmt.Errorf("core: pass 2: %w", err)
	}
	sse, queues := st.sse, st.queues

	diag := Diagnostics{KMax: kmax}
	best := -1
	bestEps := 0.0
	for _, k := range candidates {
		eps := sse[k] - queues[k].SumSquaredWeights()
		if eps < 0 { // roundoff guard
			eps = 0
		}
		diag.Candidates = append(diag.Candidates, CandidateStat{
			K: k, Gamma: gamma(k), SSE: sse[k], Eps: eps,
		})
		if best < 0 || eps < bestEps {
			best, bestEps = k, eps
		}
	}
	diag.ChosenK = best
	diag.Gamma = queues[best].Len()

	// ---- base store: U at k_opt ------------------------------------------
	// The k_opt-column prefix of the pass-2 buffer IS pass 3's output
	// (per-element sums are identical, division by σ elementwise), so no
	// further streaming is needed.
	uk := linalg.NewMatrix(n, best)
	for i := 0; i < n; i++ {
		copy(uk.Row(i), ubuf.Row(i)[:best])
	}
	base, err := svd.New(f, best, matio.NewMem(uk))
	if err != nil {
		return nil, fmt.Errorf("core: emit U: %w", err)
	}

	items := queues[best].Items()
	if opts.FlagZeroRows && len(zeroRows) > 0 {
		// The flags are paid for out of the delta budget: drop the
		// lightest deltas so the total store still fits.
		leftover := budgetNums - float64(svd.StoredNumbers(n, m, best)) - float64(len(zeroRows))
		maxItems := int(leftover / float64(opts.OutlierCost))
		if maxItems < 0 {
			maxItems = 0
		}
		if len(items) > maxItems {
			items = items[:maxItems]
		}
		diag.Gamma = len(items)
	}
	return newStore(base, items, zeroRows, opts.OutlierCost, diag), nil
}

// chooseCandidates returns the cutoffs pass 2 will evaluate, ascending.
func chooseCandidates(opts Options, kmax int, gamma func(int) int) []int {
	if opts.ForceK > 0 {
		k := opts.ForceK
		if k > kmax {
			k = kmax
		}
		return []int{k}
	}
	var ks []int
	if len(opts.CandidateKs) > 0 {
		seen := map[int]bool{}
		for _, k := range opts.CandidateKs {
			if k < 1 {
				k = 1
			}
			if k > kmax {
				k = kmax
			}
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		sort.Ints(ks)
		return ks
	}
	// Default: all of 1..kmax, thinned if the summed queue capacities
	// would exceed the cap.
	var total int64
	for k := 1; k <= kmax; k++ {
		total += int64(gamma(k))
	}
	stride := 1
	for total/int64(stride) > int64(opts.MaxQueueItems) {
		stride++
	}
	for k := 1; k <= kmax; k += stride {
		ks = append(ks, k)
	}
	if ks[len(ks)-1] != kmax {
		ks = append(ks, kmax)
	}
	return ks
}
