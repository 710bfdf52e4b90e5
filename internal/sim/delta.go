package sim

import "gossipdisc/internal/stream"

// The round-delta payload types and the fill logic live in internal/stream,
// shared with the event-driven runtime and every bus consumer; they are
// aliased here under their historical names. Each session owns a
// stream.DeltaAccumulator and publishes its delta on its own bus.

// RoundDelta describes everything that changed in one committed synchronous
// round of an undirected run. It is an alias of stream.RoundDelta — see
// that type for the field contract; the engine reuses the delta and its
// slices across rounds, so subscribers must copy anything they retain.
type RoundDelta = stream.RoundDelta

// DirectedRoundDelta is the directed counterpart of RoundDelta, aliasing
// stream.DirectedRoundDelta.
type DirectedRoundDelta = stream.DirectedRoundDelta
