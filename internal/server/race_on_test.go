//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector, which drops sync.Pool entries at random, so a path that reads
// through a pool allocates more than its budget allows.
const raceEnabled = true
