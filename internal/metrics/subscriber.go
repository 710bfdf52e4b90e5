package metrics

import (
	"gossipdisc/internal/stream"
)

// This file is the trajectory's bus-facing side: the subsampling recorder
// and the stream.Subscriber implementation. A Trajectory can be handed
// straight to Session.Subscribe; OnEvent is a kind-filtered delegation to
// the public ObserveDelta, which stepped drivers call directly.

// recorder owns the Trajectory's Every-subsampling contract: record
// rounds on cadence, hold the latest skipped round pending, and flush it
// at Finalize so the series always ends at the final observed round even
// under subsampling.
type recorder[S any] struct {
	pending S
	have    bool
}

// observe appends s to dst when round is on cadence (or terminal is set),
// otherwise holds it pending.
func (r *recorder[S]) observe(dst *[]S, every, round int, terminal bool, s S) {
	if every <= 0 {
		every = 1
	}
	if round%every == 0 || terminal {
		*dst = append(*dst, s)
		r.have = false
		return
	}
	r.pending, r.have = s, true
}

// finalize flushes the pending sample, if any. Idempotent.
func (r *recorder[S]) finalize(dst *[]S) {
	if r.have {
		*dst = append(*dst, r.pending)
		r.have = false
	}
}

// OnEvent implements stream.Subscriber: round deltas feed ObserveDelta,
// everything else is ignored. A Trajectory can therefore be attached to any
// runtime's observation bus directly:
//
//	traj := &metrics.Trajectory{}
//	sess.Subscribe(traj)
func (t *Trajectory) OnEvent(e *stream.Event) {
	if e.Kind == stream.KindRound {
		t.ObserveDelta(e.Graph, e.Delta)
	}
}
