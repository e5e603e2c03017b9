package nullgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomConnectedDist draws a random degree sequence on 4..12 vertices
// with minimum degree 1, rejection-sampling until it admits a connected
// realization (even stub total, graphical, enough edges to span).
func randomConnectedDist(t *testing.T, r *rand.Rand) *DegreeDistribution {
	t.Helper()
	for tries := 0; tries < 1000; tries++ {
		n := 4 + r.Intn(9)
		counts := map[int64]int64{}
		for v := 0; v < n; v++ {
			counts[int64(1+r.Intn(n-1))]++
		}
		dist, err := DistributionFromCounts(counts)
		if err != nil {
			continue
		}
		if _, err := ConnectedRealization(dist); err != nil {
			continue
		}
		return dist
	}
	t.Fatal("no connected-realizable sequence after 1000 tries")
	return nil
}

// graphIsConnected checks single-componentness by BFS, independently of
// the library's own connectivity machinery (the point of the harness is
// to not trust the code under test).
func graphIsConnected(g *Graph) bool {
	n := g.NumVertices
	if n <= 1 {
		return true
	}
	adj := make([][]int32, n)
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	seen := make([]bool, n)
	queue := []int32{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == n
}

// degreeCountsOf tallies a graph's degree multiset for comparison with
// the requested distribution.
func degreeCountsOf(g *Graph) map[int64]int64 {
	counts := map[int64]int64{}
	for _, d := range g.Degrees(1) {
		counts[d]++
	}
	return counts
}

func assertConnectedSample(t *testing.T, g *Graph, want map[int64]int64, label string) {
	t.Helper()
	if rep := g.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("%s: output not simple: %+v", label, rep)
	}
	got := degreeCountsOf(g)
	for d, c := range want {
		if got[d] != c {
			t.Fatalf("%s: degree %d count = %d, want %d", label, d, got[d], c)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: degree multiset %v, want %v", label, got, want)
	}
	if !graphIsConnected(g) {
		t.Fatalf("%s: output disconnected", label)
	}
}

// TestConnectedPropertyHarness is the property-based battery of the
// connected sampler: seeded random degree sequences through the public
// API across seeds × workers × fixed/adaptive stopping. Both paths are
// exact-degree in Connected mode — Shuffle mixes the given edge list,
// Generate seeds from a connected realization of the distribution — so
// every sample must be simple, connected (by an independent BFS), and
// preserve the degree multiset exactly. Tier-1 (no -short skip): the
// sequences are tiny, so the sweep is fast.
func TestConnectedPropertyHarness(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for s := 0; s < 5; s++ {
		dist := randomConnectedDist(t, r)
		want := map[int64]int64{}
		for _, c := range dist.Classes {
			want[c.Degree] = c.Count
		}
		seedGraph, err := ConnectedRealization(dist)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{3, 17} {
			for _, workers := range []int{1, 4} {
				for _, adaptive := range []bool{false, true} {
					opt := Options{Seed: seed, Workers: workers, Connected: true}
					if adaptive {
						opt.StopPolicy = &StopPolicy{Statistic: StopOnSuccessRate, Floor: 4, Budget: 12}
					} else {
						opt.SwapIterations = 5
					}
					label := fmt.Sprintf("%v seed=%d workers=%d adaptive=%v", want, seed, workers, adaptive)

					g := NewGraph(append([]Edge(nil), seedGraph.Edges...), seedGraph.NumVertices)
					res, err := Shuffle(g, opt)
					if err != nil {
						t.Fatalf("%s: Shuffle: %v", label, err)
					}
					assertConnectedSample(t, res.Graph, want, label)
					if res.Connectivity == nil {
						t.Fatalf("%s: Connected run reported no connectivity stats", label)
					}

					gen, err := Generate(dist, opt)
					if err != nil {
						t.Fatalf("%s: Generate: %v", label, err)
					}
					assertConnectedSample(t, gen.Graph, want, label+" (Generate)")
				}
			}
		}
	}
}

// TestConnectedShuffleRepairsDisconnectedInput: Shuffle with Connected
// set must first repair a disconnected (but simple, degree-legal) input
// and then keep it connected — two disjoint 6-rings come out as one
// connected 2-regular graph with all degrees intact.
func TestConnectedShuffleRepairsDisconnectedInput(t *testing.T) {
	var edges []Edge
	for i := int32(0); i < 6; i++ {
		edges = append(edges, Edge{U: i, V: (i + 1) % 6})
		edges = append(edges, Edge{U: 6 + i, V: 6 + (i+1)%6})
	}
	g := NewGraph(edges, 12)
	res, err := Shuffle(g, Options{Seed: 9, Connected: true, SwapIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	assertConnectedSample(t, res.Graph, map[int64]int64{2: 12}, "two-rings")
}

// TestConnectedShuffleErrorsOnUnsimplifiableInput: a multigraph whose
// degree sequence (3, 3, 2) has no simple realization keeps its
// parallel pair through simplification, and the connected chain runs
// on simple graphs only, so Shuffle must return an error.
func TestConnectedShuffleErrorsOnUnsimplifiableInput(t *testing.T) {
	g := NewGraph([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 1}, {U: 2, V: 0}}, 3)
	if _, err := Shuffle(g, Options{Seed: 1, Connected: true, SwapIterations: 2}); err == nil {
		t.Fatal("Connected Shuffle of an unsimplifiable multigraph returned no error")
	}
}

// TestConnectedRejectsNonSimpleSpace: the option is defined for the
// simple cell only, and the public layer must say so before any work.
func TestConnectedRejectsNonSimpleSpace(t *testing.T) {
	dist, err := DistributionFromCounts(map[int64]int64{2: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, space := range []Space{SpaceLoopyStub, SpaceLoopyVertex, SpaceMultigraphStub, SpaceMultigraphVertex} {
		if _, err := Generate(dist, Options{Seed: 1, Connected: true, Space: space, SwapIterations: 2}); err == nil {
			t.Errorf("%v: Connected accepted in a non-simple space", space)
		}
	}
}
