package gossipdisc_test

// Session-overhead suite guarding the PR 3 resumable-session refactor.
// BenchmarkScaleSession compares three ways of driving the identical run
// (bit-identical results by the session contract):
//
//   - run:        the fire-and-forget facade, no delta materialization —
//                 the pre-session hot path.
//   - run+delta:  a run with a no-op subscriber attached — the facade's
//                 cost when the per-round delta is materialized.
//   - step:       a manual Step loop, which always materializes the delta
//                 it returns — the apples-to-apples comparison is against
//                 run+delta, and the target is ≤1% overhead.
//
// BenchmarkScaleChurnCoverage compares the engine-session churn coverage
// (incremental, O(1) per read) against the full O(members²) pair rescan the
// pre-session churn package performed every round. Baselines are recorded
// in BENCH_pr3.json; CI runs -bench=BenchmarkScale -benchtime=1x as smoke.

import (
	"testing"

	"gossipdisc/internal/churn"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

func benchScaleSession(b *testing.B, n int) {
	sink := 0
	b.Run("run", func(b *testing.B) {
		r := rng.New(uint64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := gen.Cycle(n)
			res := sim.Run(g, core.Push{}, r.Split(), sim.Config{})
			if !res.Converged {
				b.Fatal("run did not converge")
			}
		}
	})
	b.Run("run+delta", func(b *testing.B) {
		r := rng.New(uint64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := gen.Cycle(n)
			res := runObserved(g, r.Split(), stream.SubscriberFunc(func(*stream.Event) {}))
			if !res.Converged {
				b.Fatal("run did not converge")
			}
		}
	})
	b.Run("step", func(b *testing.B) {
		r := rng.New(uint64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := gen.Cycle(n)
			sess := sim.NewSession(g, core.Push{}, r.Split(), sim.Config{})
			for {
				d, more := sess.Step()
				if d != nil {
					sink += len(d.NewEdges)
				}
				if !more {
					break
				}
			}
			if !sess.Converged() {
				b.Fatal("stepped run did not converge")
			}
			sess.Close()
		}
	})
	_ = sink
}

func BenchmarkScaleSessionPush1024(b *testing.B) { benchScaleSession(b, 1024) }

// coverageByScan is the pre-session coverage computation: a full pair scan
// over the current membership.
func coverageByScan(s *churn.Session) float64 {
	g := s.Graph()
	var members []int
	for u := 0; u < g.N(); u++ {
		if s.Alive(u) {
			members = append(members, u)
		}
	}
	m := len(members)
	if m < 2 {
		return 1
	}
	have := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if g.HasEdge(members[i], members[j]) {
				have++
			}
		}
	}
	return float64(have) / float64(m*(m-1)/2)
}

func benchScaleChurnCoverage(b *testing.B, members int, incremental bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := churn.NewSession(churn.Config{
			Capacity:       members * 4,
			InitialMembers: members,
			SeedDegree:     3,
			Rate:           1.0,
		}, rng.New(uint64(members)))
		sink := 0.0
		for round := 0; round < 400; round++ {
			s.Step()
			if incremental {
				sink += s.Coverage()
			} else {
				sink += coverageByScan(s)
			}
		}
		if sink <= 0 {
			b.Fatal("coverage never positive")
		}
	}
}

func BenchmarkScaleChurnCoverage256Incremental(b *testing.B) { benchScaleChurnCoverage(b, 256, true) }
func BenchmarkScaleChurnCoverage256Scan(b *testing.B)        { benchScaleChurnCoverage(b, 256, false) }
