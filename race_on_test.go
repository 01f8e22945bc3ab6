//go:build race

package queenbee

// raceEnabled reports whether the race detector is on: its
// instrumentation adds allocations of its own, so allocation counts are
// meaningless under it.
const raceEnabled = true
