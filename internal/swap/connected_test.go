package swap

import (
	"testing"

	"nullgraph/internal/connected"
	"nullgraph/internal/degseq"
	"nullgraph/internal/graph"
	"nullgraph/internal/rng"
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

// TestConnectedNewEnginePanicsOnMultigraphInput pins that a parallel
// pair is refused at bind: the chain's simplicity test reads the
// checker's adjacency, which holds only from a simple start.
func TestConnectedNewEnginePanicsOnMultigraphInput(t *testing.T) {
	el := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 1}, {U: 2, V: 0}}, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine with multigraph input did not panic")
		}
	}()
	NewEngine(el, Options{Connected: true})
}

// TestConnectedStepDoesNotAllocate pins that the connected chain's
// Step, whose simplicity test and swap bookkeeping live in the
// checker's preallocated adjacency, allocates nothing after bind.
// Allocation that comes only now and then, such as a map's growth,
// would round to 0 per single Step, so each measured run is 8 Steps.
func TestConnectedStepDoesNotAllocate(t *testing.T) {
	el := treePlusChords(2048, 4096, 1)
	eng := NewEngine(el, Options{Connected: true, Seed: 1, TrackSwapped: true})
	defer eng.Close()
	eng.Step() // warm-up
	allocs := testing.AllocsPerRun(5, func() {
		for k := 0; k < 8; k++ {
			eng.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("connected Step allocated %v objects per 8 calls after warm-up, want 0", allocs)
	}
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

// treePlusChords builds a sparse connected simple graph on n vertices
// with m edges: a random recursive tree (vertex i hangs under a
// uniform earlier vertex) plus uniform chords, loops and duplicates
// redrawn. The same seed always yields the same edge list.
func treePlusChords(n, m int, seed uint64) *graph.EdgeList {
	src := rng.New(seed)
	edges := make([]graph.Edge, 0, m)
	seen := make(map[uint64]bool, m)
	for i := 1; i < n; i++ {
		e := graph.Edge{U: int32(src.Uint64n(uint64(i))), V: int32(i)}
		seen[e.Key()] = true
		edges = append(edges, e)
	}
	for len(edges) < m {
		e := graph.Edge{U: int32(src.Uint64n(uint64(n))), V: int32(src.Uint64n(uint64(n)))}
		if e.IsLoop() || seen[e.Key()] {
			continue
		}
		seen[e.Key()] = true
		edges = append(edges, e)
	}
	return graph.NewEdgeList(edges, n)
}

// TestGoldenConnectedChain pins the exact output of the serial
// connected chain on a sparse connected graph (tree plus chords), where
// most proposals remove a witness-tree edge and go through the cut
// certificate or the bounded search. The connectivity verdicts are exact whatever the checker's
// internal witness looks like, so any change to how the witness is
// kept must leave this hash alone. The chain is serial, so Workers=4
// must give the same hash as Workers=1.
func TestGoldenConnectedChain(t *testing.T) {
	const want = uint64(0xd8b49d4c51cee8de)
	for _, workers := range []int{1, 4} {
		el := treePlusChords(1024, 2048, 5)
		eng := NewEngine(el, Options{Connected: true, Iterations: 4, Workers: workers, Seed: 11})
		eng.Run(eng.opt.Iterations, nil)
		eng.Close()
		if got := edgeHash(el); got != want {
			t.Errorf("workers=%d: connected chain output hash = %#x, want %#x", workers, got, want)
		}
	}
}
