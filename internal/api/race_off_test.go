//go:build !race

package api_test

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation slows evaluation several times over and
// drops sync.Pool entries at random.
const raceEnabled = false
