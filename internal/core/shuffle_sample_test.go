package core

import (
	"testing"

	"nullgraph/internal/graph"
)

func ringEdges(n int) *graph.EdgeList {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	return graph.NewEdgeList(edges, n)
}

// TestShuffleSampleMatchesFromEdgeList locks the batch contract of the
// edge-list entry point: sample s of a reused Engine is bit-identical
// (Workers=1) to a one-shot FromEdgeList seeded with SampleSeed(seed, s).
func TestShuffleSampleMatchesFromEdgeList(t *testing.T) {
	opt := Options{Workers: 1, Seed: 17, SwapIterations: 4}
	eng := NewEngine(opt)
	defer eng.Close()
	for sample := uint64(0); sample < 3; sample++ {
		mixed := ringEdges(2000)
		res, err := eng.ShuffleSample(mixed, sample, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Swaps.PerIteration) != 4 {
			t.Fatalf("sample %d: ran %d iterations, want 4", sample, len(res.Swaps.PerIteration))
		}

		ref := ringEdges(2000)
		refOpt := opt
		refOpt.Seed = SampleSeed(opt.Seed, sample)
		if _, err := FromEdgeList(ref, refOpt); err != nil {
			t.Fatal(err)
		}
		for i := range ref.Edges {
			if mixed.Edges[i] != ref.Edges[i] {
				t.Fatalf("sample %d: ShuffleSample diverges from FromEdgeList at edge %d", sample, i)
			}
		}
	}
}

func TestShuffleSampleDistinctSamplesDiffer(t *testing.T) {
	eng := NewEngine(Options{Workers: 1, Seed: 5, SwapIterations: 4})
	defer eng.Close()
	a := ringEdges(1000)
	if _, err := eng.ShuffleSample(a, 0, nil); err != nil {
		t.Fatal(err)
	}
	b := ringEdges(1000)
	if _, err := eng.ShuffleSample(b, 1, nil); err != nil {
		t.Fatal(err)
	}
	if a.EqualAsSets(b) {
		t.Error("samples 0 and 1 produced identical graphs")
	}
}

func TestShuffleSampleUntilSwapped(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, Seed: 9, MixUntilSwapped: true, MaxSwapIterations: 200})
	defer eng.Close()
	for sample := uint64(0); sample < 2; sample++ {
		el := ringEdges(256)
		res, err := eng.ShuffleSample(el, sample, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Mixed {
			t.Fatalf("sample %d: 256-ring did not mix in 200 iterations", sample)
		}
		if res.Stop == nil || res.Stop.Reason != "mixed" {
			t.Errorf("sample %d: stop record %+v, want reason \"mixed\"", sample, res.Stop)
		}
		last := res.Swaps.PerIteration[len(res.Swaps.PerIteration)-1]
		if last.EverSwapped < 1.0 {
			t.Errorf("sample %d: mixed=true but EverSwapped = %v", sample, last.EverSwapped)
		}
		if rep := el.CheckSimplicity(); !rep.IsSimple() {
			t.Errorf("sample %d: output not simple: %+v", sample, rep)
		}
	}
}

// TestShuffleSampleHandlesGrowingInputs: the session's swap engine must
// rebind cleanly when a later sample is larger than the buffers sized
// for the first.
func TestShuffleSampleHandlesGrowingInputs(t *testing.T) {
	eng := NewEngine(Options{Workers: 1, Seed: 3, SwapIterations: 3})
	defer eng.Close()
	for _, n := range []int{500, 5000, 100} {
		el := ringEdges(n)
		degrees := el.Degrees(1)
		if _, err := eng.ShuffleSample(el, uint64(n), nil); err != nil {
			t.Fatal(err)
		}
		after := el.Degrees(1)
		for i := range degrees {
			if degrees[i] != after[i] {
				t.Fatalf("n=%d: degree sequence changed", n)
			}
		}
		if rep := el.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("n=%d: output not simple: %+v", n, rep)
		}
	}
}
