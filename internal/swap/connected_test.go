package swap

import (
	"testing"

	"nullgraph/internal/connected"
	"nullgraph/internal/degseq"
	"nullgraph/internal/graph"
)

func connectedStart(t *testing.T, degrees []int64) *graph.EdgeList {
	t.Helper()
	el, err := connected.Realize(degseq.FromDegrees(degrees))
	if err != nil {
		t.Fatalf("Realize(%v): %v", degrees, err)
	}
	return el
}

func TestConnectedOptionValidate(t *testing.T) {
	for _, space := range []graph.Space{graph.LoopyStub, graph.LoopyVertex, graph.MultigraphStub, graph.MultigraphVertex} {
		if err := (Options{Space: space, Connected: true}).Validate(); err == nil {
			t.Errorf("Connected with %v should fail validation", space)
		}
	}
	if err := (Options{Space: graph.SimpleStub, Connected: true}).Validate(); err != nil {
		t.Errorf("Connected with simple space rejected: %v", err)
	}
}

func TestConnectedNewEnginePanicsOnBadSpace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine with Connected on a loopy space did not panic")
		}
	}()
	NewEngine(connectedStart(t, []int64{2, 2, 2}), Options{Space: graph.LoopyStub, Connected: true})
}

func TestConnectedNewEnginePanicsOnDisconnectedInput(t *testing.T) {
	el := graph.NewEdgeList([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	}, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine with disconnected input did not panic")
		}
	}()
	NewEngine(el, Options{Connected: true})
}

// TestConnectedChainInvariants runs the connected chain and checks
// every iteration preserves connectivity, simplicity, and degrees.
func TestConnectedChainInvariants(t *testing.T) {
	degrees := []int64{3, 3, 3, 3, 3, 3, 2, 2, 2, 2}
	el := connectedStart(t, degrees)
	want := el.Degrees(1)
	eng := NewEngine(el, Options{Connected: true, Seed: 7, TrackSwapped: true})
	defer eng.Close()
	total := int64(0)
	for it := 0; it < 40; it++ {
		stats := eng.Step()
		total += stats.Successes
		if _, count := graph.ConnectedComponents(el, 1); count != 1 {
			t.Fatalf("iteration %d: %d components", it, count)
		}
		if s := el.CheckSimplicity(); !s.IsSimple() {
			t.Fatalf("iteration %d: not simple: %+v", it, s)
		}
	}
	if total == 0 {
		t.Fatal("connected chain accepted no swaps in 40 iterations")
	}
	got := el.Degrees(1)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d degree %d, want %d", v, got[v], want[v])
		}
	}
	st := eng.ConnectivityStats()
	if st == nil || st.Proposals == 0 {
		t.Fatalf("ConnectivityStats = %+v, want live counters", st)
	}
	if st.FastPathHits+st.BoundedChecks == 0 {
		t.Fatalf("no checker traffic recorded: %+v", st)
	}
}

// TestConnectedChainDeterministic pins that the serial chain is
// bit-reproducible regardless of the Workers setting.
func TestConnectedChainDeterministic(t *testing.T) {
	degrees := []int64{3, 3, 3, 3, 3, 3, 3, 3}
	run := func(workers int) []graph.Edge {
		el := connectedStart(t, degrees)
		eng := NewEngine(el, Options{Connected: true, Seed: 11, Workers: workers, Iterations: 25})
		defer eng.Close()
		eng.Run(eng.opt.Iterations, nil)
		return append([]graph.Edge(nil), el.Edges...)
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs across worker widths: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestConnectedChainRejectsDisconnection pins that a state space whose
// only reachable disconnection is blocked stays connected: C6's sole
// non-identity simple swap family either re-forms a 6-cycle or splits
// two triangles, so every sampled state must remain a single cycle.
func TestConnectedChainRejectsDisconnection(t *testing.T) {
	el := connectedStart(t, []int64{2, 2, 2, 2, 2, 2})
	eng := NewEngine(el, Options{Connected: true, Seed: 3, Iterations: 60})
	defer eng.Close()
	eng.Run(eng.opt.Iterations, nil)
	if _, count := graph.ConnectedComponents(el, 1); count != 1 {
		t.Fatalf("connected chain left %d components", count)
	}
	st := eng.ConnectivityStats()
	if st.RejectedDisconnecting == 0 {
		t.Fatal("C6 chain never saw a disconnecting proposal; rejection path untested")
	}
}

// TestConnectedReset checks engine reuse across samples: Reset rebinds
// the checker and restarts its counters.
func TestConnectedReset(t *testing.T) {
	degrees := []int64{2, 2, 2, 2, 2, 2}
	el := connectedStart(t, degrees)
	eng := NewEngine(el, Options{Connected: true, Seed: 5, Iterations: 10})
	defer eng.Close()
	eng.Run(eng.opt.Iterations, nil)
	first := *eng.ConnectivityStats()
	el2 := connectedStart(t, degrees)
	eng.SetSeed(6)
	eng.Reset(el2)
	if st := eng.ConnectivityStats(); st.Proposals != 0 {
		t.Fatalf("Reset did not clear connectivity stats: %+v", st)
	}
	eng.Run(eng.opt.Iterations, nil)
	if _, count := graph.ConnectedComponents(el2, 1); count != 1 {
		t.Fatal("post-Reset chain disconnected the graph")
	}
	if first.Proposals == 0 {
		t.Fatal("first run recorded no proposals")
	}
}
