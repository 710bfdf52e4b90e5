package export

import (
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

var updateGoldens = flag.Bool("update", false, "rewrite golden files from current behavior")

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestPrometheusSessionGolden pins the full exposition from a real
// synchronous session with the standard analyzer pack attached. The run is
// deterministic (pinned seed, sequential engine), so the exposition is too.
func TestPrometheusSessionGolden(t *testing.T) {
	exp := NewPrometheus()
	h := analyze.NewHealth()
	exp.Attach(h)
	s := sim.NewSession(gen.Path(12), core.Push{}, rng.New(5), sim.Config{})
	s.Subscribe(h)
	s.Subscribe(exp)
	if res := s.Run(); !res.Converged {
		t.Fatalf("session did not converge: %+v", res)
	}
	var b strings.Builder
	if _, err := exp.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "prometheus_session.golden", b.String())
}

// TestPrometheusEventKindsGolden pins the exposition after a synthetic
// event sequence covering the membership, rate-change, and wire paths a
// plain synchronous session never exercises.
func TestPrometheusEventKindsGolden(t *testing.T) {
	exp := NewPrometheus()
	var bus stream.Bus
	bus.Subscribe(exp)

	g := graph.NewUndirected(4)
	acc := stream.NewDeltaAccumulator(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	acc.Fill(1, g, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	acc.D.Members = 4
	acc.D.MemberEdges = 2
	bus.EmitRound(g, &acc.D, 1)
	bus.EmitMembership(stream.KindJoin, g, 3, 1)
	bus.EmitMembership(stream.KindLeave, g, 0, 2)
	bus.EmitRateChange(2, "", 2.5, 2.5)
	bus.EmitRateChange(-1, "slow", 0.5, 3)
	bus.EmitWireRound(&stream.WireStats{
		Rounds: 7, Sent: 40, Dropped: 3, Delivered: 37, IDBits: 640,
		Delayed: 2, Duplicated: 1, Reordered: 4,
	}, 7)

	var b strings.Builder
	if _, err := exp.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "prometheus_events.golden", b.String())
}

// TestPrometheusAnonymityGolden pins the gossip_anonymity_* gauges from a
// deterministic run of a role-based population: three eavesdroppers watch
// a rumor entering at node 0, and the exposition captures the coalition's
// posterior at convergence.
func TestPrometheusAnonymityGolden(t *testing.T) {
	pop, err := core.ParseRoleSpec("eavesdropper=3", 12, core.Push{})
	if err != nil {
		t.Fatal(err)
	}
	anon := analyze.NewAnonymity(0, pop.Nodes("eavesdropper"))
	exp := NewPrometheus()
	exp.AttachAnonymity(anon)
	exp.BridgeFindings(anon)
	s := sim.NewSession(gen.Path(12), pop, rng.New(5), sim.Config{})
	s.Subscribe(anon)
	s.Subscribe(exp)
	if res := s.Run(); !res.Converged {
		t.Fatalf("session did not converge: %+v", res)
	}
	if anon.Witnesses() == 0 {
		t.Fatal("converged run produced no coalition witnesses")
	}
	var b strings.Builder
	if _, err := exp.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "prometheus_anonymity.golden", b.String())
}

// TestGuardSerializesScrapes: scrapes that race a run read the attached
// analyzers only between the events a Guard feeds them (-race checks it).
func TestGuardSerializesScrapes(t *testing.T) {
	h := analyze.NewHealth()
	exp := NewPrometheus()
	exp.Attach(h)
	s := sim.NewSession(gen.Cycle(256), core.Push{}, rng.New(1), sim.Config{})
	s.Subscribe(exp.Guard(h))
	s.Subscribe(exp)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			exp.WriteTo(io.Discard)
		}
	}()
	if !s.Run().Converged {
		t.Fatal("run did not converge")
	}
	<-done
}

func TestPrometheusServeHTTP(t *testing.T) {
	exp := NewPrometheus()
	var bus stream.Bus
	bus.Subscribe(exp)
	g := graph.NewUndirected(2)
	acc := stream.NewDeltaAccumulator(2)
	g.AddEdge(0, 1)
	acc.Fill(1, g, []graph.Edge{{U: 0, V: 1}})
	bus.EmitRound(g, &acc.D, 1)

	rec := httptest.NewRecorder()
	exp.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"gossip_rounds_total 1", "gossip_edges_total 1", "gossip_edges_remaining 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestServeStops: Serve answers on the address it bound, and after stop
// returns the listener is closed.
func TestServeStops(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "up")
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "up" {
		t.Fatalf("served %q, want \"up\"", body)
	}
	stop()
	if c, err := net.Dial("tcp", addr.String()); err == nil {
		c.Close()
		t.Fatal("the listener still accepts after stop")
	}
	if _, _, err := Serve(addr.String()+"0", nil); err == nil {
		t.Fatal("Serve on a bad address did not fail")
	}
}

func TestSnapshotGoldens(t *testing.T) {
	g := gen.Cycle(8)
	var dot, mer strings.Builder
	if err := WriteDOT(&dot, g, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMermaid(&mer, g, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "cycle8.dot.golden", dot.String())
	compareGolden(t, "cycle8.mmd.golden", mer.String())
}

func TestSnapshotMaxNodesCap(t *testing.T) {
	g := gen.Cycle(8)
	var dot strings.Builder
	if err := WriteDOT(&dot, g, SnapshotOptions{MaxNodes: 5}); err != nil {
		t.Fatal(err)
	}
	out := dot.String()
	if !strings.Contains(out, "showing 5 of 8 nodes") {
		t.Errorf("cap comment missing:\n%s", out)
	}
	if strings.Contains(out, "5 -- ") || strings.Contains(out, " -- 7") {
		t.Errorf("capped snapshot leaked nodes beyond the cap:\n%s", out)
	}
	var mer strings.Builder
	if err := WriteMermaid(&mer, g, SnapshotOptions{MaxNodes: 5}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mer.String(), "%% showing 5 of 8 nodes") {
		t.Errorf("mermaid cap comment missing:\n%s", mer.String())
	}
}
