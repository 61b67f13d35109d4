//go:build !race

package sim

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = false
