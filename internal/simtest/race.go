//go:build race

package simtest

// Race reports whether the race detector is on (see norace.go).
const Race = true
