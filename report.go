package seqstore

import (
	"fmt"

	"seqstore/internal/metrics"
	"seqstore/internal/store"
)

// Report summarizes reconstruction quality of a store against the original
// dataset, in the paper's error measures.
type Report struct {
	// RMSPE is the root mean square percent error (Definition 5.1): RMS
	// reconstruction error normalized by the standard deviation of the
	// data. 0.05 means "5% error".
	RMSPE float64
	// WorstAbs is the largest absolute error of any single cell, and
	// WorstRow/WorstCol its position.
	WorstAbs           float64
	WorstRow, WorstCol int
	// WorstNormalized is WorstAbs divided by the data's standard
	// deviation (the normalization of Table 3).
	WorstNormalized float64
	// MedianAbs is the median absolute cell error — typically orders of
	// magnitude below the mean (Figure 8 discussion).
	MedianAbs float64
	// SpaceRatio is the compressed size as a fraction of the original.
	SpaceRatio float64
}

// String formats the report for terminals.
func (r Report) String() string {
	return fmt.Sprintf("space %.2f%%  RMSPE %.3f%%  worst |err| %.4g (%.1f%% of σ) at (%d,%d)  median |err| %.4g",
		100*r.SpaceRatio, 100*r.RMSPE, r.WorstAbs, 100*r.WorstNormalized,
		r.WorstRow, r.WorstCol, r.MedianAbs)
}

// Evaluate reconstructs every cell of the store and compares it against the
// original dataset x, returning the error report. The store and x must have
// the same dimensions.
func (st *Store) Evaluate(x *Matrix) (Report, error) {
	sn, sm := st.Dims()
	xn, xm := x.Dims()
	if sn != xn || sm != xm {
		return Report{}, fmt.Errorf("seqstore: store is %d×%d but dataset is %d×%d", sn, sm, xn, xm)
	}
	var acc metrics.Accumulator
	var dist metrics.Distribution
	row := make([]float64, sm)
	st.mu.RLock()
	for i := 0; i < sn; i++ {
		got, err := st.s.Row(i, row)
		if err != nil {
			st.mu.RUnlock()
			return Report{}, err
		}
		xrow := x.m.Row(i)
		acc.AddRow(i, xrow, got)
		for j := range got {
			dist.Add(got[j] - xrow[j])
		}
	}
	st.mu.RUnlock()
	worst, wr, wc := acc.WorstAbs()
	return Report{
		RMSPE:           acc.RMSPE(),
		WorstAbs:        worst,
		WorstRow:        wr,
		WorstCol:        wc,
		WorstNormalized: acc.WorstNormalized(),
		MedianAbs:       dist.Quantile(0.5),
		SpaceRatio:      st.SpaceRatio(),
	}, nil
}

// SVDDInfo describes the decisions SVDD compression made; available only
// for stores built with the SVDD method.
type SVDDInfo struct {
	// K is the chosen number of principal components (k_opt).
	K int
	// KMax is the largest cutoff that fit the budget with zero deltas.
	KMax int
	// Outliers is the number of (row, col, delta) triplets stored.
	Outliers int
}

// SVDDInfo returns SVDD diagnostics, or ok=false for other methods.
func (st *Store) SVDDInfo() (info SVDDInfo, ok bool) {
	s := st.factored()
	if s == nil || s.Method() != store.MethodSVDD {
		return SVDDInfo{}, false
	}
	d := s.Diagnostics()
	return SVDDInfo{K: d.ChosenK, KMax: d.KMax, Outliers: s.NumOutliers()}, true
}
