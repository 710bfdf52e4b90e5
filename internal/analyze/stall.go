package analyze

import (
	"fmt"

	"gossipdisc/internal/stream"
)

// defaultPatience is the stall threshold used when NewStall gets 0.
const defaultPatience = 50

// Stall watches dissemination liveness: how many rounds have passed since
// the last accepted edge while pairs are still outstanding. Per-round work
// is O(1).
type Stall struct {
	// Patience is the number of progress-free rounds tolerated before a
	// stall warning fires; 4×Patience escalates to critical.
	Patience int

	inited bool
	round  int

	lastProgress int // round of the last accepted edge
	remaining    int // EdgesRemaining as of the last delta
}

// NewStall returns a stall analyzer firing after patience progress-free
// rounds (values < 1 select the default of 50).
func NewStall(patience int) *Stall {
	if patience < 1 {
		patience = defaultPatience
	}
	return &Stall{Patience: patience}
}

// OnEvent implements stream.Subscriber; only KindRound deltas matter.
func (s *Stall) OnEvent(e *stream.Event) {
	if e.Kind != stream.KindRound {
		return
	}
	if !s.inited {
		s.inited = true
		s.lastProgress = e.Delta.Round
	}
	s.round = e.Delta.Round
	s.remaining = e.Delta.EdgesRemaining
	if len(e.Delta.NewEdges) > 0 {
		s.lastProgress = e.Delta.Round
	}
}

// Stalled returns the number of rounds since the last accepted edge. O(1).
func (s *Stall) Stalled() int { return s.round - s.lastProgress }

// Remaining returns the outstanding pair count as of the last delta. O(1).
func (s *Stall) Remaining() int { return s.remaining }

// Findings reports a stall warning (critical past 4×Patience) while pairs
// are outstanding with no progress.
func (s *Stall) Findings() []Finding {
	stalled := s.Stalled()
	if !s.inited || s.remaining <= 0 || stalled < s.Patience {
		return nil
	}
	sev := SevWarning
	if stalled >= 4*s.Patience {
		sev = SevCritical
	}
	return []Finding{{
		Rule:     "stall",
		Severity: sev,
		Round:    s.round,
		Node:     -1,
		Message:  fmt.Sprintf("no new edges for %d rounds with %d pairs outstanding", stalled, s.remaining),
	}}
}
