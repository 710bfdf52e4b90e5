package netsim

import (
	"testing"

	"gossipdisc/internal/rng"
)

// benchNode is a minimal traffic generator: each node sends one message to
// a rotating target per round, from a reused buffer, so the bench measures
// the network's routing and delivery pipeline rather than handler work.
type benchNode struct {
	self, n int
	out     [1]Message
}

func (b *benchNode) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	b.out[0] = Message{From: b.self, To: (b.self + round) % b.n, Kind: KindIntroduce, Payload: b.self}
	return b.out[:]
}

func benchRounds(b *testing.B, n int, cfg Config) {
	cfg.Seed = 1
	handlers := make([]Handler, n)
	for i := range handlers {
		handlers[i] = &benchNode{self: i, n: n}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := New(n, cfg)
		nw.Run(handlers, 64, nil)
		nw.Close()
	}
}

// BenchmarkRoundPristine is the no-scenario wire: the exact configuration
// the seed repo ran, and the baseline the impairment pipeline must not tax.
func BenchmarkRoundPristine256(b *testing.B) { benchRounds(b, 256, Config{}) }

// BenchmarkRoundNoopScenario attaches a scenario whose single phase
// impairs nothing, so the full impairment pipeline runs — rule lookup,
// partition and crash checks — but every coin stays in its pocket. The
// gap to Pristine is the price of *having* a scenario at zero intensity.
func BenchmarkRoundNoopScenario256(b *testing.B) {
	benchRounds(b, 256, Config{Scenario: &Scenario{
		Name:   "noop",
		Phases: []Phase{{All: &Impairment{}}},
	}})
}

// Degradation benches: one impairment at a time, at the intensities the
// E19 curves sweep, so wire-level cost scales are on record next to the
// discovery-time ones.
func BenchmarkRoundScenarioLoss256(b *testing.B) {
	benchRounds(b, 256, Config{Scenario: DropScenario(0.2)})
}

func BenchmarkRoundScenarioDelay256(b *testing.B) {
	benchRounds(b, 256, Config{Scenario: &Scenario{
		Name:   "delay",
		Phases: []Phase{{All: &Impairment{Delay: 2, Jitter: 2}}},
	}})
}

func BenchmarkRoundScenarioDupReorder256(b *testing.B) {
	benchRounds(b, 256, Config{Scenario: &Scenario{
		Name:   "dup-reorder",
		Phases: []Phase{{All: &Impairment{Duplicate: 0.2, Reorder: 0.5}}},
	}})
}

// BenchmarkRoundScenarioKitchenSink layers every impairment class at
// once — loss, delay+jitter, duplication, reordering, a partition that
// heals, per-link overrides, and a crash window — the worst realistic
// per-message cost.
func BenchmarkRoundScenarioKitchenSink256(b *testing.B) {
	benchRounds(b, 256, Config{Scenario: &Scenario{
		Name: "kitchen-sink",
		Phases: []Phase{
			{All: &Impairment{Loss: 0.1, Delay: 1, Jitter: 2, Duplicate: 0.1, Reorder: 0.3}},
			{Until: 32, Partition: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}},
			{From: 8, Until: 24, Crash: []int{9, 10}},
			{Links: []LinkRule{{To: Node(0), Impairment: Impairment{Loss: 0.5}}}},
		},
	}})
}
