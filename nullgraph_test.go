package nullgraph

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestGenerateQuickstartFlow(t *testing.T) {
	dist, err := PowerLawDistribution(5000, 1, 200, 2.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(dist); err != nil {
		t.Fatal(err)
	}
	res, err := Generate(dist, Options{Seed: 42, SwapIterations: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("not simple: %+v", rep)
	}
	if len(res.SwapIterations) != 8 {
		t.Errorf("swap stats = %d, want 8", len(res.SwapIterations))
	}
	q := Quality(res.Graph, dist, 4)
	if math.Abs(q.Edges) > 0.08 {
		t.Errorf("edge error %v", q.Edges)
	}
}

func TestShufflePreservesDegrees(t *testing.T) {
	// Build a small deterministic graph, shuffle, compare degrees.
	var edges []Edge
	for i := int32(0); i < 500; i++ {
		edges = append(edges, Edge{U: i, V: (i + 1) % 500})
	}
	g := NewGraph(edges, 500)
	before := g.Degrees(1)
	res, err := Shuffle(g, Options{Seed: 7, SwapIterations: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != g {
		t.Error("Shuffle must operate in place")
	}
	after := g.Degrees(1)
	for v := range before {
		if before[v] != after[v] {
			t.Fatalf("degree of %d changed", v)
		}
	}
}

// TestSpaceMatrixInvariants drives every cell of the sampling-space
// matrix through the public API across seeds × workers and checks the
// output is a legal state of its cell — simple cells must also pass
// the simplicity check, and Shuffle must preserve degrees exactly in
// every cell.
func TestSpaceMatrixInvariants(t *testing.T) {
	dist, err := DistributionFromCounts(map[int64]int64{2: 120, 5: 16})
	if err != nil {
		t.Fatal(err)
	}
	spaces := []Space{SpaceSimple, SpaceSimpleVertex, SpaceLoopyStub, SpaceLoopyVertex, SpaceMultigraphStub, SpaceMultigraphVertex}
	for _, space := range spaces {
		for _, seed := range []uint64{3, 17} {
			for _, workers := range []int{1, 4} {
				opt := Options{Seed: seed, Workers: workers, SwapIterations: 4, Space: space}
				res, err := Generate(dist, opt)
				if err != nil {
					t.Fatalf("%v seed=%d workers=%d: %v", space, seed, workers, err)
				}
				if !res.Graph.SatisfiesSpace(space) {
					t.Errorf("%v seed=%d workers=%d: Generate output violates its space", space, seed, workers)
				}
				if (space == SpaceSimple || space == SpaceSimpleVertex) && !res.Graph.CheckSimplicity().IsSimple() {
					t.Errorf("%v seed=%d workers=%d: simple-cell output not simple", space, seed, workers)
				}

				// Shuffle from a ring (simple, hence legal in every cell)
				// must stay in-space and preserve degrees exactly.
				var edges []Edge
				for i := int32(0); i < 200; i++ {
					edges = append(edges, Edge{U: i, V: (i + 1) % 200})
				}
				g := NewGraph(edges, 200)
				before := g.Degrees(1)
				if _, err := Shuffle(g, opt); err != nil {
					t.Fatalf("%v seed=%d workers=%d: Shuffle: %v", space, seed, workers, err)
				}
				if !g.SatisfiesSpace(space) {
					t.Errorf("%v seed=%d workers=%d: Shuffle output violates its space", space, seed, workers)
				}
				after := g.Degrees(1)
				for v := range before {
					if before[v] != after[v] {
						t.Fatalf("%v seed=%d workers=%d: degree of %d changed", space, seed, workers, v)
					}
				}
			}
		}
	}
}

func TestMixUntilSwapped(t *testing.T) {
	dist, err := DistributionFromCounts(map[int64]int64{2: 1000, 5: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(dist, Options{Seed: 5, MixUntilSwapped: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mixed {
		t.Error("MixUntilSwapped did not reach full mixing")
	}
}

// TestAdaptiveStopPolicy exercises the public StopPolicy path: the run
// must report an adaptive outcome, respect the floor and budget, and
// agree with the per-iteration stats it returned.
func TestAdaptiveStopPolicy(t *testing.T) {
	dist, err := DistributionFromCounts(map[int64]int64{2: 1000, 5: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(dist, Options{
		Seed:       5,
		Workers:    1,
		StopPolicy: &StopPolicy{Floor: 6, Budget: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stop
	if st == nil || st.Policy != "adaptive" {
		t.Fatalf("Stop = %+v, want adaptive", st)
	}
	if st.Iterations != len(res.SwapIterations) {
		t.Errorf("Stop.Iterations = %d, SwapIterations = %d", st.Iterations, len(res.SwapIterations))
	}
	if st.Iterations < 6 || st.Iterations > 64 {
		t.Errorf("iterations %d outside [floor 6, budget 64]", st.Iterations)
	}
	if st.Reason != "converged" && st.Reason != "budget" {
		t.Errorf("unexpected stop reason %q", st.Reason)
	}
	if len(st.Checkpoints) == 0 {
		t.Error("adaptive run recorded no checkpoints")
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("not simple: %+v", rep)
	}
	// Fixed-budget runs must say so too.
	res, err = Generate(dist, Options{Seed: 5, Workers: 1, SwapIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop == nil || res.Stop.Policy != "fixed" || res.Stop.Iterations != 3 {
		t.Errorf("fixed run Stop = %+v", res.Stop)
	}
}

func TestBaselinesExported(t *testing.T) {
	dist, err := DistributionFromCounts(map[int64]int64{1: 200, 50: 4})
	if err != nil {
		t.Fatal(err)
	}
	om := ChungLuMultigraph(dist, Options{Seed: 1})
	if int64(om.NumEdges()) != dist.NumEdges() {
		t.Errorf("O(m) edges = %d, want %d", om.NumEdges(), dist.NumEdges())
	}
	erased, rep := ChungLuErased(dist, Options{Seed: 1})
	if !erased.CheckSimplicity().IsSimple() {
		t.Error("erased output not simple")
	}
	if rep.IsSimple() {
		t.Error("extreme skew produced no erasures (wildly unlikely)")
	}
	bern, err := ChungLuBernoulli(dist, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bern.CheckSimplicity().IsSimple() {
		t.Error("Bernoulli output not simple")
	}
	hh, err := HavelHakimi(dist)
	if err != nil {
		t.Fatal(err)
	}
	got := DistributionOf(hh, 1)
	if got.NumEdges() != dist.NumEdges() {
		t.Error("Havel-Hakimi did not realize the distribution exactly")
	}
}

func TestLFRExported(t *testing.T) {
	res, err := LFR(LFRConfig{
		NumVertices: 1500, DegreeGamma: 2.2, MinDegree: 3, MaxDegree: 40,
		CommunityGamma: 1.8, MinCommunity: 25, MaxCommunity: 200,
		Mu: 0.25, SwapIterations: 2, Seed: 9, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) < 2 {
		t.Errorf("only %d communities", len(res.Communities))
	}
	if math.Abs(res.ObservedMu-0.25) > 0.12 {
		t.Errorf("observed mu %v", res.ObservedMu)
	}
}

func TestIORoundTrips(t *testing.T) {
	g := NewGraph([]Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 3)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.EqualAsSets(g) {
		t.Error("graph IO round trip failed")
	}
	dist, _ := DistributionFromCounts(map[int64]int64{1: 2, 2: 1})
	buf.Reset()
	if err := WriteDistribution(&buf, dist); err != nil {
		t.Fatal(err)
	}
	dback, err := ReadDistribution(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if dback.NumVertices() != 3 {
		t.Error("distribution IO round trip failed")
	}
}

func TestValidateRejectsNonGraphical(t *testing.T) {
	dist, err := DistributionFromCounts(map[int64]int64{3: 2, 1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(dist); err == nil {
		t.Error("non-graphical distribution validated")
	}
}

func TestMetricsExported(t *testing.T) {
	if g := Gini([]int64{1, 1, 1, 1}); g != 0 {
		t.Errorf("Gini regular = %v", g)
	}
	star := NewGraph([]Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}, 4)
	if a := Assortativity(star, 1); a >= 0 {
		t.Errorf("star assortativity = %v", a)
	}
	s := ComputeStats(star, 1)
	if s.MaxDegree != 3 || s.NumEdges != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDeterminism(t *testing.T) {
	// Bit-exact reproducibility holds for Workers=1 (parallel swap
	// proposals race benignly between workers; see the Options doc).
	dist, _ := DistributionFromCounts(map[int64]int64{3: 400, 7: 20})
	a, err := Generate(dist, Options{Seed: 3, SwapIterations: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(dist, Options{Seed: 3, SwapIterations: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Graph.EqualAsSets(b.Graph) {
		t.Error("same seed produced different graphs")
	}
}

// TestNegativeSwapIterationsRejected: a negative swap budget is an
// option error at every entry point, not a panic deep in the chain.
func TestNegativeSwapIterationsRejected(t *testing.T) {
	dist, err := PowerLawDistribution(200, 1, 20, 2.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	joint := JointFromDegrees([]int64{1, 1, 1}, []int64{1, 1, 1})
	opt := Options{Seed: 1, SwapIterations: -1, Workers: 1}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Generate", func() error { _, err := Generate(dist, opt); return err }},
		{"Shuffle", func() error {
			_, err := Shuffle(NewGraph([]Edge{{U: 0, V: 1}, {U: 2, V: 3}}, 4), opt)
			return err
		}},
		{"GenerateDirected", func() error { _, err := GenerateDirected(joint, opt); return err }},
		{"ShuffleDirected", func() error { _, err := ShuffleDirected(digraphCycle(8), opt); return err }},
	} {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), "negative SwapIterations") {
			t.Errorf("%s: err = %v, want a negative SwapIterations error", tc.name, err)
		}
	}
}
