//go:build race

package eventsim

// raceEnabled reports whether the race detector is active; the zero-alloc
// tests skip under -race because instrumentation changes allocation counts.
const raceEnabled = true
