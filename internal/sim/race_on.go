//go:build race

package sim

// RaceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops items at random, so the allocation guard tests skip.
const RaceEnabled = true
