package eventsim

import (
	"runtime"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

// The EventThroughput benchmarks pin the acceptance bar for the event
// runtime: events/sec on the sparse backend (BENCH_pr8.json records them;
// the 100k figure must clear 1M events/sec). Like the ScaleSparse pair,
// they drive a fixed event budget on a cycle far from completion — the
// steady-state regime where each event is one exponential gap, one member
// pick, and one Act.

func benchEventThroughput(b *testing.B, n, events int) {
	var g *graph.Undirected
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g = gen.Cycle(n, graph.BackendSparse)
		s := New(g, core.Push{}, rng.New(uint64(i)+1), Config{
			MaxEvents: events,
			Done:      func(*graph.Undirected) bool { return false },
		})
		b.StartTimer()
		res := s.Run()
		if res.Events != events || !res.BudgetExhausted {
			b.Fatalf("run stopped after %d events: %+v", res.Events, res)
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heapMB")
	runtime.KeepAlive(g)
}

func BenchmarkEventThroughput10k(b *testing.B)  { benchEventThroughput(b, 10_000, 200_000) }
func BenchmarkEventThroughput100k(b *testing.B) { benchEventThroughput(b, 100_000, 1_000_000) }

// BenchmarkEventVsTickUniform is the head-to-head at uniform rates: the
// same seed family, the same cycle, run to completion under each async
// runtime. The pair quantifies the constant-factor price of continuous
// time (one exponential gap per activation on top of the tick's Intn).
func BenchmarkEventVsTickUniform(b *testing.B) {
	const n = 4096
	b.Run("event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := Run(gen.Cycle(n, graph.BackendSparse), core.Push{}, rng.New(uint64(i)+1), Config{})
			if !res.Converged {
				b.Fatalf("event run failed: %+v", res)
			}
			b.ReportMetric(res.ParallelRounds, "rounds")
		}
	})
	b.Run("tick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := sim.RunAsync(gen.Cycle(n, graph.BackendSparse), core.Push{}, rng.New(uint64(i)+1), sim.AsyncConfig{})
			if !res.Converged {
				b.Fatalf("tick run failed")
			}
			b.ReportMetric(res.ParallelRounds, "rounds")
		}
	})
}
