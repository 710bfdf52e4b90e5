// Command adversary-lab demos the role-based population layer: named
// roles over a default process, adversarial behaviors from the roles
// pack, live retuning of a role mid-run, and the eavesdropper coalition's
// source-anonymity posterior.
//
// Act 1 places two self-promoting Byzantine introducers at the spread
// positions of a 48-node cycle — exactly the cut vertices. They never
// introduce their neighbors to each other, so every cross-cut
// introduction is censored and discovery stalls at a coverage plateau.
// Mid-run the byzantine role is retuned to honest push on the live
// population (no restart, same session), and the hoarded contact lists of
// the former adversaries complete the graph in a burst.
//
// Act 2 runs honest push under an 8-node eavesdropper coalition and asks
// what the coalition learned about the rumor's entry node: the posterior
// entropy, the probability mass on the true source, and its rank among
// the suspects.
//
// The same populations run from the CLI:
//
//	gossipsim -process push -family cycle -n 48 -roles "byzantine=5%"
//	gossipsim -n 96 -roles "eavesdropper=8:1-95" -metrics-addr :9090
//
// Every run is bit-replayable from (seed, roles).
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"gossipdisc"
)

func main() { run(os.Stdout) }

// run executes both acts and writes their report to w.
func run(w io.Writer) {
	censorshipAct(w)
	anonymityAct(w)
}

// censorshipAct is Act 1: Byzantine cut vertices stall discovery; a live
// role retune releases it.
func censorshipAct(w io.Writer) {
	const n = 48
	pop, err := gossipdisc.ParseRoleSpec("byzantine=5%", n, gossipdisc.Push{})
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "adversary-lab: %s on the %d-cycle, byzantines at %v (the cut vertices)\n\n",
		pop.Name(), n, pop.Nodes("byzantine"))

	g := gossipdisc.Cycle(n)
	s := gossipdisc.NewSession(g,
		gossipdisc.WithProcess(pop),
		gossipdisc.WithSeed(11),
		gossipdisc.WithMaxRounds(-1))

	pairs := n * (n - 1) / 2
	coverage := func() float64 {
		return 1 - float64(s.EdgesRemaining())/float64(pairs)
	}
	fmt.Fprintln(w, "round  stage      coverage")
	fmt.Fprintln(w, "---------------------------")
	report := func(stage string) {
		fmt.Fprintf(w, "%5d  %-9s  %.3f\n", s.Round(), stage, coverage())
	}
	for s.Round() < 600 && !s.Converged() {
		s.Step()
		if s.Round()%150 == 0 {
			report("censored")
		}
	}
	plateau := coverage()

	// The adversary is unmasked: retune the byzantine role to honest push
	// on the live population. The session keeps stepping — same graph,
	// same rng stream, new behavior.
	pop.SetRoleProcess("byzantine", gossipdisc.Push{})
	for !s.Converged() && s.Round() < 5000 {
		s.Step()
		if s.Round()%150 == 0 {
			report("patched")
		}
	}
	report("patched")
	fmt.Fprintf(w, "\ncensored plateau held %.0f%% of pairs; patched run completed at round %d\n\n",
		100*plateau, s.Round())
}

// anonymityAct is Act 2: what did the eavesdropper coalition learn about
// the rumor's entry node?
func anonymityAct(w io.Writer) {
	const n = 96
	pop, err := gossipdisc.ParseRoleSpec(fmt.Sprintf("eavesdropper=8:1-%d", n-1), n, gossipdisc.Push{})
	if err != nil {
		panic(err)
	}
	coalition := pop.Nodes("eavesdropper")
	anon := gossipdisc.NewAnonymity(0, coalition)

	s := gossipdisc.NewSession(gossipdisc.Cycle(n),
		gossipdisc.WithProcess(pop),
		gossipdisc.WithSeed(7),
		gossipdisc.WithAnalyzers(anon))
	res := s.Run()

	fmt.Fprintf(w, "adversary-lab: rumor entered at node 0; coalition %v watched %d rounds\n",
		coalition, res.Rounds)
	fmt.Fprintf(w, "  posterior entropy   %.2f bits (prior: log2(n) = %.2f)\n",
		anon.PosteriorEntropy(), math.Log2(n))
	fmt.Fprintf(w, "  source probability  %.4f (prior: 1/n = %.4f)\n",
		anon.SourceProbability(), 1.0/n)
	fmt.Fprintf(w, "  source rank         %d of %d witnessed suspects\n",
		anon.SourceRank(), anon.Witnesses())
	for _, f := range anon.Findings() {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
}
