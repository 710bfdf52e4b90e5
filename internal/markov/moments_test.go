package markov

import (
	"math"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

func TestMomentsPath3PushGeometric(t *testing.T) {
	// T ~ Geometric(1/2) on {1, 2, ...}: mean 2, variance (1-p)/p² = 2.
	m := ExpectedMoments(gen.Path(3), PushKernel{})
	if math.Abs(m.Mean-2) > 1e-9 || math.Abs(m.Variance-2) > 1e-9 {
		t.Fatalf("moments %+v want mean 2 variance 2", m)
	}
}

func TestMomentsPath3PullGeometric(t *testing.T) {
	// T ~ Geometric(3/4): mean 4/3, variance (1/4)/(9/16) = 4/9.
	m := ExpectedMoments(gen.Path(3), PullKernel{})
	if math.Abs(m.Mean-4.0/3) > 1e-9 || math.Abs(m.Variance-4.0/9) > 1e-9 {
		t.Fatalf("moments %+v want mean 4/3 variance 4/9", m)
	}
}

func TestMomentsMeanMatchesExpectedTime(t *testing.T) {
	for _, k := range []Kernel{PushKernel{}, PullKernel{}} {
		for _, g := range []*graph.Undirected{
			gen.Path(4), gen.Cycle(5), gen.Star(5), gen.Fig1cGraph(),
		} {
			m := ExpectedMoments(g, k)
			e := ExpectedTime(g, k)
			if math.Abs(m.Mean-e) > 1e-9 {
				t.Fatalf("%s on %v: moments mean %v vs ExpectedTime %v",
					k.Name(), g, m.Mean, e)
			}
			if m.Variance < -1e-9 {
				t.Fatalf("%s on %v: negative variance %v", k.Name(), g, m.Variance)
			}
		}
	}
}

func TestMomentsMatchTailDistribution(t *testing.T) {
	// Var[T] = 2·Σ_{t>=0} t·P(T>t) + E[T] − E[T]² (discrete moments from
	// the survival function).
	g := gen.Fig1cGraph()
	k := PushKernel{}
	m := ExpectedMoments(g, k)
	horizon := int(m.Mean*60) + 60
	tail := TailDistribution(g, k, horizon)
	sumT, sumT2 := 0.0, 0.0
	for t, p := range tail {
		sumT += p
		sumT2 += 2 * float64(t) * p
	}
	wantVar := sumT2 + sumT - sumT*sumT
	if math.Abs(m.Variance-wantVar) > 1e-6*wantVar {
		t.Fatalf("variance %v vs tail-derived %v", m.Variance, wantVar)
	}
}

func TestMomentsCompleteGraph(t *testing.T) {
	m := ExpectedMoments(gen.Complete(4), PushKernel{})
	if m.Mean != 0 || m.Variance != 0 {
		t.Fatalf("complete moments %+v", m)
	}
}

func TestMomentsVarianceMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo comparison is slow")
	}
	g := gen.Cycle(5)
	m := ExpectedMoments(g, PushKernel{})
	const trials = 6000
	results := sim.Trials(0, trials, 777, func(trial int, r *rng.Rand) *graph.Undirected {
		return gen.Cycle(5)
	}, func(g *graph.Undirected, r *rng.Rand) sim.Result { return sim.Run(g, core.Push{}, r, sim.Config{}) })
	var sum, sum2 float64
	for _, res := range results {
		x := float64(res.Rounds)
		sum += x
		sum2 += x * x
	}
	mcMean := sum / trials
	mcVar := sum2/trials - mcMean*mcMean
	if math.Abs(mcMean-m.Mean) > 0.08*m.Mean {
		t.Fatalf("MC mean %v vs exact %v", mcMean, m.Mean)
	}
	if math.Abs(mcVar-m.Variance) > 0.2*m.Variance {
		t.Fatalf("MC variance %v vs exact %v", mcVar, m.Variance)
	}
}

func TestMomentsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExpectedMoments(gen.Path(6), PushKernel{})
}
