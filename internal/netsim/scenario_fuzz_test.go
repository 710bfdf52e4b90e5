package netsim

import "testing"

// FuzzScenarioJSON: ParseScenario never panics, and a scenario it accepts
// that also fits an 8-node network drives that network through a few rounds
// of one-shot traffic with its counters balanced — every sent or duplicated
// copy is either delivered or dropped — and with every in-flight copy keyed
// to a future round.
func FuzzScenarioJSON(f *testing.F) {
	f.Add(`{"phases":[]}`, uint64(1))
	f.Add(`{"name":"split-brain","phases":[{"until":3,"partition":[[0,1],[2,3]]},{"from":2,"links":[{"from":0,"to":1,"loss":0.5,"delay":2}]},{"from":4,"all":{"jitter":1,"duplicate":0.5,"reorder":0.2}}]}`, uint64(7))
	f.Add(`{"phases":[{"from":2,"until":3,"crash":[1,2]},{"all":{"delay":1,"jitter":2,"duplicate":1}}]}`, uint64(3))
	f.Add(`{"phases":[{"links":[{"to":3,"loss":1}]}]}`, uint64(5))
	// Delay and jitter sums that wrap int: both must be rejected.
	f.Add(`{"phases":[{"all":{"jitter":9223372036854775807}}]}`, uint64(1))
	f.Add(`{"phases":[{"all":{"delay":9223372036854775807}}]}`, uint64(1))
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		scn, err := ParseScenario([]byte(spec))
		if err != nil || scn.Validate(8) != nil {
			return
		}
		const n = 8
		nw := New(n, Config{Seed: seed, Scenario: scn})
		defer nw.Close()
		handlers := make([]Handler, n)
		for u := range handlers {
			handlers[u] = newOneShot(u, (u+1+u%3)%n, 1+u%4)
		}
		for round := 1; round <= 6; round++ {
			nw.Round(handlers)
			st := nw.Stats()
			if st.Sent+st.Duplicated != st.Delivered+st.Dropped {
				t.Fatalf("round %d: sent %d + duplicated %d != delivered %d + dropped %d",
					round, st.Sent, st.Duplicated, st.Delivered, st.Dropped)
			}
			for at := range nw.pending {
				if at <= round {
					t.Fatalf("round %d: %d copies keyed to past round %d", round, len(nw.pending[at]), at)
				}
			}
		}
	})
}
