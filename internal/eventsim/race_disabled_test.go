//go:build !race

package eventsim

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
