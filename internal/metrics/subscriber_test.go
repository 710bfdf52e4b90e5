package metrics

import (
	"reflect"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

// TestTrajectorySubscriberEquivalence pins that attaching trajectories
// through Session.Subscribe records exactly what feeding them the deltas
// Step returns records: OnEvent is a pure kind-filter over ObserveDelta.
func TestTrajectorySubscriberEquivalence(t *testing.T) {
	steppedTraj := &Trajectory{Every: 2}
	stepped := sim.NewSession(gen.Path(10), core.Push{}, rng.New(11), sim.Config{})
	for d, _ := stepped.Step(); d != nil; d, _ = stepped.Step() {
		steppedTraj.ObserveDelta(stepped.Graph(), d)
	}
	steppedRes := stepped.Stats()

	busTraj := &Trajectory{Every: 2}
	bus := sim.NewSession(gen.Path(10), core.Push{}, rng.New(11), sim.Config{})
	bus.Subscribe(busTraj)
	busRes := bus.Run()

	if steppedRes != busRes {
		t.Fatalf("results diverged: stepped %+v, bus %+v", steppedRes, busRes)
	}
	steppedTraj.Finalize()
	busTraj.Finalize()
	if !reflect.DeepEqual(steppedTraj.Snapshots, busTraj.Snapshots) {
		t.Errorf("snapshots diverged:\nstepped: %v\nbus:    %v", steppedTraj.Snapshots, busTraj.Snapshots)
	}
}
