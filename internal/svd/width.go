package svd

import "seqstore/internal/matio"

// SketchMinCols is the narrowest source whose factors may come from the
// randomized sketch (onepass.go) rather than the Gram pass (twopass.go).
// Below it the Gram pass always runs: it is exact, it is the path every
// pinned fixture and every served workload (366 columns) holds, and in
// the 2 048-row SVDD sweeps at budget 0.10 the sketch's share of its time
// read anywhere from 0.39 to 0.73 at 366–576 columns, first at or under
// half in every run at 640. EXPERIMENTS.md ("Gram or sketch, by width")
// records the sweeps.
const SketchMinCols = 640

// Power-iteration passes the sketch runs for each method. SVDD's scoring
// pass streams the data after the factor pass anyway, so its factors come
// from the single-pass Nyström recovery; plain SVD emits U from its one
// power pass's buffer, two streaming passes in all, as on the Gram path.
const (
	SVDDPowerIters = -1
	SVDPowerIters  = 1
)

// Modelled factor-stage costs in nanoseconds, fitted to plain SVD in
// BenchmarkCompressByWidth (2 CPUs, N ∈ {2 048, 20 000}, M from 366 to
// 2 000, budgets 0.10–1.00): the Gram pass accumulates C in
// gramNsPerNM2·N·M² and eigendecomposes it in gramNsPerM3·M³; the sketch
// streams X through a b-column basis in about sketchNsPerNMB·N·M·b, its
// power pass and QR included. The sketch's term is optimistic once b nears
// M, where its M·b² and b³ work take over, an error towards the sketch
// that changed no measured choice; on tall, wide sources (20 000×2 000)
// the model understates the sketch's lead, an error towards the Gram
// pass.
const (
	gramNsPerNM2   = 0.22
	gramNsPerM3    = 2.5
	sketchNsPerNMB = 3.0
)

// sketched is the one rule that chooses the factor algorithm for an n×m
// source whose sketch would recover rank components: the sketch, when the
// source is at least SketchMinCols wide and the model above says the sketch
// takes at most half the Gram pass's time. The sketch's factors are the
// less accurate (0.6–2.8 % relative RMSPE for SVDD, 7–12 % for plain SVD
// at the shapes it wins), so it must win by a margin, and by one wider
// than the spread of repeated runs on the measuring machine (whose cores
// switch between two speeds about 28 % apart). The row count enters
// because only the Gram pass has a term, the M³ eigensolve, that does not
// grow with it: the taller the source, the smaller the sketch's
// advantage. The rank enters because the sketch's cost grows with it: at
// a budget of 1.00 it took 0.86–1.38 of the Gram time for SVDD and 2.3–7
// times it for plain SVD.
func sketched(n, m, rank int) bool {
	if m < SketchMinCols {
		return false
	}
	nf, mf := float64(n), float64(m)
	gram := gramNsPerNM2*nf*mf*mf + gramNsPerM3*mf*mf*mf
	sketch := sketchNsPerNMB * nf * mf * float64(RandOptions{Rank: rank}.sketchWidth(m))
	return 2*sketch <= gram
}

// FactorsByWidth returns the factors SVDD compresses src with: the Gram
// pass's, at full rank, or where sketched says so the sketch's top-rank
// factors. rank is the largest cutoff the caller may keep; the Gram path
// ignores it.
func FactorsByWidth(src matio.RowSource, rank, workers int) (*Factors, error) {
	if n, m := src.Dims(); sketched(n, m, rank) {
		return ComputeFactorsRandWorkers(src, RandOptions{Rank: rank, PowerIters: SVDDPowerIters, Workers: workers})
	}
	return ComputeFactorsWorkers(src, workers)
}

// CompressByWidth builds a plain-SVD store with cutoff k through the Gram
// pass or, where sketched says so, the sketch.
func CompressByWidth(src matio.RowSource, k, workers int) (*Store, error) {
	if n, m := src.Dims(); sketched(n, m, k) {
		return CompressRandWorkers(src, k, RandOptions{Rank: k, PowerIters: SVDPowerIters, Workers: workers})
	}
	return CompressWorkers(src, k, workers)
}
