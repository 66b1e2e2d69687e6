package seqstore

import (
	"seqstore/internal/core"
	"seqstore/internal/matio"
)

// IOStats is a snapshot of the simulated disk-access counters of a store's
// U backing — the matrix whose row reads realize the paper's
// "one disk access per cell reconstruction" claim. Counters accumulate
// across all queries since the store was opened (or last ResetIOStats).
type IOStats struct {
	// RowReads is the number of U-row fetches (random or sequential).
	RowReads int64
	// RowWrites is the number of U rows written (fold-in appends).
	RowWrites int64
	// Passes is the number of full sequential scans started.
	Passes int64
}

// IOStats reports the disk-access counters of the store's U backing. Only
// the SVD-family methods (svd, svdd) have a U backing; for other methods
// ok is false. The serving layer's /metrics endpoint exposes the same
// counters, so the single-access property can be verified live under
// traffic.
func (st *Store) IOStats() (s IOStats, ok bool) {
	u := st.uStats()
	if u == nil {
		return IOStats{}, false
	}
	snap := u.Snapshot()
	return IOStats{
		RowReads:  snap.RowReads,
		RowWrites: snap.RowWrites,
		Passes:    snap.Passes,
	}, true
}

// ResetIOStats zeroes the U-backing access counters, so a caller can
// meter the cost of a specific query batch. No-op for methods without a
// U backing.
func (st *Store) ResetIOStats() {
	if u := st.uStats(); u != nil {
		u.Reset()
	}
}

// factored returns the store as the factored representation both svd and
// svdd stores are, or nil for the other methods.
func (st *Store) factored() *core.Store {
	c, _ := st.s.(*core.Store)
	return c
}

// uStats returns the access counters of the store's U backing, or nil for
// a method without one.
func (st *Store) uStats() *matio.Stats {
	if c := st.factored(); c != nil {
		return c.Base().UStats()
	}
	return nil
}
