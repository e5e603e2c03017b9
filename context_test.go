package nullgraph

import (
	"context"
	"errors"
	"testing"
	"time"

	"nullgraph/internal/obs"
)

func ringGraph(n int) *Graph {
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	return NewGraph(edges, n)
}

func testDistribution(t *testing.T) *DegreeDistribution {
	t.Helper()
	dist, err := PowerLawDistribution(3000, 1, 50, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return dist
}

// TestGenerateContextPreCanceled: an already-canceled context must
// return its error before any pipeline work.
func TestGenerateContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := GenerateContext(ctx, testDistribution(t), Options{Seed: 1, SwapIterations: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled Generate returned a result")
	}
}

// TestShuffleContextPreCanceledUntouched: a pre-canceled context must
// leave the caller's graph bitwise untouched.
func TestShuffleContextPreCanceledUntouched(t *testing.T) {
	g := ringGraph(500)
	before := append([]Edge(nil), g.Edges...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ShuffleContext(ctx, g, Options{Seed: 1, SwapIterations: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	for i := range before {
		if g.Edges[i] != before[i] {
			t.Fatalf("pre-canceled Shuffle mutated the input at edge %d", i)
		}
	}
}

// TestShuffleContextMidRunCancel: cancellation during a long mix must
// return promptly with the graph valid (degrees and edge count
// preserved) but under-mixed.
func TestShuffleContextMidRunCancel(t *testing.T) {
	g := ringGraph(20000)
	degrees := g.Degrees(1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ShuffleContext(ctx, g, Options{Seed: 3, SwapIterations: 1_000_000})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	// A million iterations would run for hours; the generous bound keeps
	// the promptness check meaningful without flaking under load.
	if elapsed > 30*time.Second {
		t.Fatalf("cancel took %v; latency is not bounded", elapsed)
	}
	if len(g.Edges) != 20000 {
		t.Fatalf("edge count changed: %d", len(g.Edges))
	}
	after := g.Degrees(1)
	for i := range degrees {
		if degrees[i] != after[i] {
			t.Fatalf("canceled Shuffle broke the degree sequence at vertex %d", i)
		}
	}
	if rep := g.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("canceled Shuffle left a non-simple graph: %+v", rep)
	}
}

// TestContextTimeout: deadline expiry surfaces as DeadlineExceeded.
func TestContextTimeout(t *testing.T) {
	g := ringGraph(20000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := ShuffleContext(ctx, g, Options{Seed: 3, SwapIterations: 1_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got err %v, want context.DeadlineExceeded", err)
	}
}

// TestBackgroundContextBitIdentical: threading a cancelable-but-never-
// canceled context must not change the output — polling never consumes
// randomness.
func TestBackgroundContextBitIdentical(t *testing.T) {
	dist := testDistribution(t)
	opt := Options{Workers: 1, Seed: 5, SwapIterations: 4}
	plain, err := Generate(dist, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	viaCtx, err := GenerateContext(ctx, dist, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Graph.Edges) != len(viaCtx.Graph.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(plain.Graph.Edges), len(viaCtx.Graph.Edges))
	}
	for i := range plain.Graph.Edges {
		if plain.Graph.Edges[i] != viaCtx.Graph.Edges[i] {
			t.Fatalf("cancelable ctx changed the output at edge %d", i)
		}
	}
}

// TestEngineMatchesOneShot locks the public session contract: Engine
// sample 0 is bit-identical (Workers=1) to the one-shot Generate, and
// sample s to a one-shot seeded with SampleSeed(base, s).
func TestEngineMatchesOneShot(t *testing.T) {
	dist := testDistribution(t)
	opt := Options{Workers: 1, Seed: 9, SwapIterations: 4}
	eng := NewEngine(opt)
	defer eng.Close()
	for s := uint64(0); s < 3; s++ {
		if got := eng.Sample(); got != s {
			t.Fatalf("sample counter = %d, want %d", got, s)
		}
		res, err := eng.Generate(dist)
		if err != nil {
			t.Fatal(err)
		}
		engEdges := append([]Edge(nil), res.Graph.Edges...) // result aliases engine buffers

		oneOpt := opt
		oneOpt.Seed = SampleSeed(opt.Seed, s)
		one, err := Generate(dist, oneOpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(engEdges) != len(one.Graph.Edges) {
			t.Fatalf("sample %d: engine drew %d edges, one-shot drew %d", s, len(engEdges), len(one.Graph.Edges))
		}
		for i := range engEdges {
			if engEdges[i] != one.Graph.Edges[i] {
				t.Fatalf("sample %d: engine diverges from one-shot at edge %d", s, i)
			}
		}
	}
}

// TestEngineSampleCounterHoldsOnCancel: a canceled call must not
// consume its sample index — the retry draws the same sample.
func TestEngineSampleCounterHoldsOnCancel(t *testing.T) {
	dist := testDistribution(t)
	eng := NewEngine(Options{Workers: 1, Seed: 2, SwapIterations: 4})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.GenerateContext(ctx, dist); !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if eng.Sample() != 0 {
		t.Fatalf("canceled call advanced the sample counter to %d", eng.Sample())
	}
	if _, err := eng.Generate(dist); err != nil {
		t.Fatal(err)
	}
	if eng.Sample() != 1 {
		t.Fatalf("successful call left the sample counter at %d", eng.Sample())
	}
	eng.SetSample(10)
	if eng.Sample() != 10 {
		t.Fatalf("SetSample did not reposition the counter")
	}
}

// TestEngineShuffleInPlace: the public Engine's Shuffle mixes the
// caller's graph in place with degrees preserved, sample after sample.
func TestEngineShuffleInPlace(t *testing.T) {
	eng := NewEngine(Options{Workers: 1, Seed: 4, SwapIterations: 4})
	defer eng.Close()
	for s := 0; s < 3; s++ {
		g := ringGraph(1000)
		degrees := g.Degrees(1)
		if _, err := eng.Shuffle(g); err != nil {
			t.Fatal(err)
		}
		after := g.Degrees(1)
		for i := range degrees {
			if degrees[i] != after[i] {
				t.Fatalf("sample %d: degree sequence changed at vertex %d", s, i)
			}
		}
	}
}

// TestDirectedOptionParity: the directed entry points must reject the
// Options they cannot honor instead of silently dropping them, and
// honor CollectReport with a report.
func TestDirectedOptionParity(t *testing.T) {
	dist := JointFromDegrees([]int64{1, 1, 1}, []int64{1, 1, 1})
	if _, err := GenerateDirected(dist, Options{Seed: 1, RefineProbabilities: 2}); err == nil {
		t.Error("GenerateDirected accepted RefineProbabilities")
	}
	if res, err := GenerateDirected(dist, Options{Seed: 1, CollectReport: true}); err != nil || (obs.Enabled && res.Report == nil) {
		t.Errorf("GenerateDirected with CollectReport: err %v, report present %v", err, err == nil && res.Report != nil)
	}
	g := NewDigraph([]Arc{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}}, 3)
	if res, err := ShuffleDirected(g, Options{Seed: 1, CollectReport: true}); err != nil || (obs.Enabled && res.Report == nil) {
		t.Errorf("ShuffleDirected with CollectReport: err %v, report present %v", err, err == nil && res.Report != nil)
	}
	if _, err := ShuffleDirected(nil, Options{Seed: 1, SwapIterations: 2}); err == nil {
		t.Error("ShuffleDirected accepted a nil digraph")
	}
	for _, opt := range []Options{
		{Seed: 1, SwapIterations: 2, Connected: true},
		{Seed: 1, SwapIterations: 2, Space: SpaceLoopyStub},
	} {
		if _, err := GenerateDirected(dist, opt); err == nil {
			t.Errorf("GenerateDirected accepted Connected=%v Space=%v", opt.Connected, opt.Space)
		}
		if _, err := ShuffleDirected(g, opt); err == nil {
			t.Errorf("ShuffleDirected accepted Connected=%v Space=%v", opt.Connected, opt.Space)
		}
	}
}

// TestShuffleDirectedContextMidRunCancel mirrors
// TestShuffleContextMidRunCancel on the directed path: cancellation
// during a long mix returns promptly with every in- and out-degree
// preserved and the digraph still simple.
func TestShuffleDirectedContextMidRunCancel(t *testing.T) {
	const n = 20000
	arcs := make([]Arc, n)
	for i := range arcs {
		arcs[i] = Arc{From: int32(i), To: int32((i + 1) % n)}
	}
	g := NewDigraph(arcs, n)
	wantOut, wantIn := g.Degrees(1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ShuffleDirectedContext(ctx, g, Options{Seed: 3, SwapIterations: 1_000_000})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	// A million iterations would run for hours; the generous bound keeps
	// the promptness check meaningful without flaking under load.
	if elapsed > 30*time.Second {
		t.Fatalf("cancel took %v; latency is not bounded", elapsed)
	}
	if len(g.Arcs) != n {
		t.Fatalf("arc count changed: %d", len(g.Arcs))
	}
	out, in := g.Degrees(1)
	for v := range wantOut {
		if out[v] != wantOut[v] || in[v] != wantIn[v] {
			t.Fatalf("canceled ShuffleDirected broke the joint degrees at vertex %d", v)
		}
	}
	if rep := g.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("canceled ShuffleDirected left a non-simple digraph: %+v", rep)
	}
}

// TestShuffleDirectedContextPreCanceled mirrors the undirected
// contract on the directed path.
func TestShuffleDirectedContextPreCanceled(t *testing.T) {
	g := NewDigraph([]Arc{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}}, 3)
	before := append([]Arc(nil), g.Arcs...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ShuffleDirectedContext(ctx, g, Options{Seed: 1, SwapIterations: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	for i := range before {
		if g.Arcs[i] != before[i] {
			t.Fatalf("pre-canceled directed shuffle mutated arc %d", i)
		}
	}
}
