package statcheck

import (
	"math"
	"strings"
	"testing"

	"nullgraph/internal/connected"
	"nullgraph/internal/graph"
	"nullgraph/internal/swap"
)

// TestConnectedSpaceCounts locks the exact connected-state counts of
// the small enumerable sequences. These are the fixture sizes the
// connected-uniformity gates test against, derived by hand:
//
//   - {2×5}: the 12 labeled 5-cycles (4!/2); a 2-regular graph splits
//     only into cycles of length >= 3, and 5 does not split, so all 12
//     are connected.
//   - {2×6}: 70 = 60 labeled 6-cycles (5!/2) + 10 triangle pairs
//     (C(6,3)/2); exactly the 10 pairs are disconnected.
//   - {1,1,2,2,2}: 7 simple realizations, 6 connected — the lone
//     disconnected one is the triangle on the degree-2 vertices plus
//     the edge between the degree-1 pair.
//   - {2×4}: the 3 labeled 4-cycles, all connected.
func TestConnectedSpaceCounts(t *testing.T) {
	cases := []struct {
		counts     map[int64]int64
		full, conn int
	}{
		{map[int64]int64{2: 5}, 12, 12},
		{map[int64]int64{2: 6}, 70, 60},
		{map[int64]int64{1: 2, 2: 3}, 7, 6},
		{map[int64]int64{2: 4}, 3, 3},
	}
	for _, tc := range cases {
		dist := mustCounts(t, tc.counts)
		full, err := EnumerateSimpleGraphs(dist, "full")
		if err != nil {
			t.Fatalf("%v: %v", tc.counts, err)
		}
		if full.NumStates() != tc.full {
			t.Errorf("%v: %d states, want %d", tc.counts, full.NumStates(), tc.full)
		}
		sub, err := ConnectedSubspace(full, int(dist.NumVertices()), "conn")
		if err != nil {
			t.Fatalf("%v: %v", tc.counts, err)
		}
		if sub.NumStates() != tc.conn {
			t.Errorf("%v: %d connected states, want %d", tc.counts, sub.NumStates(), tc.conn)
		}
	}
}

// TestConnectedSubspaceExactlyOnce verifies the connected subspace is a
// well-formed target: every state decodes to a connected graph, every
// state is a member of the parent space (exactly once — Index is built
// by newSpace, which rejects duplicates), and building it twice yields
// the identical sorted state list.
func TestConnectedSubspaceExactlyOnce(t *testing.T) {
	dist := mustCounts(t, map[int64]int64{2: 6})
	full, err := EnumerateSimpleGraphs(dist, "full")
	if err != nil {
		t.Fatal(err)
	}
	n := int(dist.NumVertices())
	sub, err := ConnectedSubspace(full, n, "conn")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sig := range sub.States {
		if seen[sig] {
			t.Fatalf("state enumerated twice")
		}
		seen[sig] = true
		if _, ok := full.Index[sig]; !ok {
			t.Fatalf("connected state missing from the parent space")
		}
		el := graph.NewEdgeList(edgesFromSignature(sig), n)
		if _, count := graph.ConnectedComponents(el, 1); count != 1 {
			t.Fatalf("disconnected state leaked into the connected subspace (%d components)", count)
		}
	}
	// Every parent state NOT in the subspace must be disconnected.
	for _, sig := range full.States {
		if seen[sig] {
			continue
		}
		el := graph.NewEdgeList(edgesFromSignature(sig), n)
		if _, count := graph.ConnectedComponents(el, 1); count == 1 {
			t.Fatalf("connected state dropped from the subspace")
		}
	}
	again, err := ConnectedSubspace(full, n, "conn")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.States) != len(sub.States) {
		t.Fatalf("rebuild changed the state count")
	}
	for i := range sub.States {
		if again.States[i] != sub.States[i] {
			t.Fatal("rebuild is not deterministic")
		}
	}
}

// TestConnectedSubspaceEmptyErrors: a sequence with no connected
// realization (perfect matchings beyond a single edge) must be refused,
// not silently turned into an empty target.
func TestConnectedSubspaceEmptyErrors(t *testing.T) {
	dist := mustCounts(t, map[int64]int64{1: 4})
	full, err := EnumerateSimpleGraphs(dist, "matchings")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectedSubspace(full, int(dist.NumVertices()), "conn"); err == nil {
		t.Fatal("empty connected subspace accepted")
	}
}

// TestConnectedGateRejectsLeakingSampler is the first rejection
// direction of the connected gate: an UNCONSTRAINED chain tested
// against the connected subspace must fail hard. The failure mode is
// not a p-value — a disconnected draw leaves the enumerated space,
// which CheckUniformity treats as a correctness error. On {2×6}, 10 of
// 70 states are disconnected, so a mixed unconstrained chain leaks
// within a handful of draws.
func TestConnectedGateRejectsLeakingSampler(t *testing.T) {
	dist := mustCounts(t, map[int64]int64{2: 6})
	full, err := EnumerateSimpleGraphs(dist, "full")
	if err != nil {
		t.Fatal(err)
	}
	space, err := ConnectedSubspace(full, int(dist.NumVertices()), "conn")
	if err != nil {
		t.Fatal(err)
	}
	start, err := connected.Realize(dist)
	if err != nil {
		t.Fatal(err)
	}
	el := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
	eng := swap.NewEngine(el, swap.Options{Iterations: connectedChainIterations, Workers: 1})
	defer eng.Close()
	_, err = CheckUniformity("leaking-unconstrained", space, 300, Config{Seed: 1, Workers: 1, Samples: 300},
		func(attemptSeed uint64, i int) (string, error) {
			copy(el.Edges, start.Edges)
			eng.SetSeed(SampleSeed(attemptSeed, i))
			eng.Reset(el)
			eng.Run(connectedChainIterations, nil)
			return SignatureOfEdges(el.Edges), nil
		})
	if err == nil {
		t.Fatal("unconstrained chain passed the connected gate without leaking")
	}
	if !strings.Contains(err.Error(), "left the enumerated space") {
		t.Fatalf("leak reported as %v, want an out-of-space error", err)
	}
}

// TestConnectedGateRejectsFrozenChain is the second rejection
// direction: a connectivity-preserving chain that over-rejects must
// fail the chi-square. The modeled bug is an acceptance layer that
// refuses every proposal touching a spanning-tree edge — on the
// repaired {2×6} start (a 6-cycle, where 5 of 6 edges are tree edges
// and every double-edge swap touches at least one) such a chain never
// moves, so every draw is the start state. The rejection is
// deterministic: all mass on one of 60 states gives stat =
// samples·(states−1) exactly, every attempt.
func TestConnectedGateRejectsFrozenChain(t *testing.T) {
	dist := mustCounts(t, map[int64]int64{2: 6})
	full, err := EnumerateSimpleGraphs(dist, "full")
	if err != nil {
		t.Fatal(err)
	}
	space, err := ConnectedSubspace(full, int(dist.NumVertices()), "conn")
	if err != nil {
		t.Fatal(err)
	}
	start, err := connected.Realize(dist)
	if err != nil {
		t.Fatal(err)
	}
	frozen := SignatureOfEdges(start.Edges)
	if _, ok := space.Index[frozen]; !ok {
		t.Fatal("repaired start is not in the connected subspace")
	}
	cfg := Config{Seed: 1, Workers: 1, Samples: 200}
	res, err := CheckUniformity("frozen-connected", space, 200, cfg,
		func(attemptSeed uint64, i int) (string, error) { return frozen, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("frozen connected chain passed the uniformity gate")
	}
	if len(res.Attempts) != cfg.maxAttempts() {
		t.Errorf("rejection after %d attempts, want the full retry budget %d", len(res.Attempts), cfg.maxAttempts())
	}
	for _, a := range res.Attempts {
		// samples·(states−1) up to float rounding (200/60 is not exact).
		if math.Abs(a.Stat-200*59) > 1e-6 {
			t.Errorf("attempt stat = %v, want %d", a.Stat, 200*59)
		}
		if a.P >= res.Alpha {
			t.Errorf("attempt p = %v not below alpha %v", a.P, res.Alpha)
		}
	}
}

// TestStatcheckSeedStreamsDomainSeparated is the regression test for
// the attempt-seed collision: before DomainSeed, every registry check
// run under one Config.Seed derived identical attempt seeds, so two
// chains with the same per-draw structure replayed correlated
// randomness. The harness must hand different checks disjoint streams.
func TestStatcheckSeedStreamsDomainSeparated(t *testing.T) {
	dist := mustCounts(t, map[int64]int64{1: 6})
	space, err := EnumerateSimpleGraphs(dist, "k6")
	if err != nil {
		t.Fatal(err)
	}
	sig := space.States[0]
	// The frozen draw fails every attempt, so each run records exactly
	// maxAttempts attempt seeds as runAttempts derived them.
	capture := func(name string) []uint64 {
		var seeds []uint64
		cfg := Config{Seed: 77, Workers: 1, Samples: 3, MaxAttempts: 2}
		if _, err := CheckUniformity(name, space, 3, cfg, func(attemptSeed uint64, i int) (string, error) {
			if i == 0 {
				seeds = append(seeds, attemptSeed)
			}
			return sig, nil
		}); err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	a, b := capture("check-a"), capture("check-b")
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("captured %d/%d attempt seeds, want 2/2", len(a), len(b))
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("attempt %d: both checks got seed %d; streams are not domain-separated", i, a[i])
		}
	}
	// The full per-draw streams must be disjoint too, not merely offset:
	// a collision anywhere in the first 4096 draws of any attempt pair
	// would mean two checks replay a shared sample seed.
	seen := make(map[uint64]bool, 2*4096)
	for _, as := range a {
		for i := 0; i < 4096; i++ {
			seen[SampleSeed(as, i)] = true
		}
	}
	for _, bs := range b {
		for i := 0; i < 4096; i++ {
			if s := SampleSeed(bs, i); seen[s] {
				t.Fatalf("sample seed %d appears in both checks' streams", s)
			}
		}
	}
	if DomainSeed(77, "check-a") == DomainSeed(77, "check-b") {
		t.Error("DomainSeed ignores the check name")
	}
}
