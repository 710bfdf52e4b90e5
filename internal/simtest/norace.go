//go:build !race

package simtest

// Race reports whether the race detector is on; ZeroAlloc skips under it,
// because its instrumentation allocates.
const Race = false
