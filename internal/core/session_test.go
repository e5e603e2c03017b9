package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nullgraph/internal/graph"
	"nullgraph/internal/par"
	"nullgraph/internal/probgen"
)

// cloneEdges snapshots an edge list's edges for later comparison.
func cloneEdges(el *graph.EdgeList) []graph.Edge {
	return append([]graph.Edge(nil), el.Edges...)
}

// TestEngineReuseBitIdentical locks the session contract at Workers=1:
// sample s from one reused Engine is bit-identical to sample s from a
// fresh Engine (and, through SampleSeed, to a one-shot run with the
// derived seed), across at least three samples.
func TestEngineReuseBitIdentical(t *testing.T) {
	dist := powerlaw(t, 4000, 60, 2.1, 7)
	opt := Options{Workers: 1, Seed: 21, SwapIterations: 4}

	reused := NewEngine(opt)
	defer reused.Close()
	for sample := uint64(0); sample < 4; sample++ {
		got, err := reused.GenerateSample(dist, sample, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotEdges := cloneEdges(got.Graph) // aliases engine buffers; copy before the next call

		fresh := NewEngine(opt)
		want, err := fresh.GenerateSample(dist, sample, nil)
		if err != nil {
			fresh.Close()
			t.Fatal(err)
		}
		if len(gotEdges) != len(want.Graph.Edges) {
			t.Fatalf("sample %d: reused engine drew %d edges, fresh drew %d",
				sample, len(gotEdges), len(want.Graph.Edges))
		}
		for i := range gotEdges {
			if gotEdges[i] != want.Graph.Edges[i] {
				t.Fatalf("sample %d: reused engine diverges from fresh at edge %d", sample, i)
			}
		}
		fresh.Close()

		// One-shot equivalence through the seed schedule: a run seeded
		// with SampleSeed(base, s) reproduces batch sample s exactly.
		oneOpt := opt
		oneOpt.Seed = SampleSeed(opt.Seed, sample)
		one, err := FromDistribution(dist, oneOpt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gotEdges {
			if gotEdges[i] != one.Graph.Edges[i] {
				t.Fatalf("sample %d: batch sample diverges from one-shot SampleSeed run at edge %d", sample, i)
			}
		}
	}
}

// TestEngineProbabilityCacheInvalidation: switching distributions
// mid-session must rebuild the matrix, not serve the stale one.
func TestEngineProbabilityCacheInvalidation(t *testing.T) {
	distA := powerlaw(t, 3000, 40, 2.2, 3)
	distB := mustDist(t, map[int64]int64{1: 400, 2: 300, 5: 40})
	opt := Options{Workers: 1, Seed: 9, SwapIterations: 2}

	eng := NewEngine(opt)
	defer eng.Close()
	resA1, err := eng.GenerateSample(distA, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	probA := resA1.Probabilities
	resB, err := eng.GenerateSample(distB, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Probabilities == probA {
		t.Fatal("changed distribution served the cached probability matrix")
	}
	edgesB := cloneEdges(resB.Graph)

	// And the rebuilt run must equal a fresh engine's run on distB.
	fresh := NewEngine(opt)
	defer fresh.Close()
	want, err := fresh.GenerateSample(distB, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(edgesB) != len(want.Graph.Edges) {
		t.Fatalf("cache-invalidated run drew %d edges, fresh drew %d", len(edgesB), len(want.Graph.Edges))
	}
	for i := range edgesB {
		if edgesB[i] != want.Graph.Edges[i] {
			t.Fatalf("cache-invalidated run diverges from fresh at edge %d", i)
		}
	}

	// Returning to distA serves its matrix from the cache, which keeps
	// the last few distributions', and so does an immediate repeat.
	resA2, err := eng.GenerateSample(distA, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	resA3, err := eng.GenerateSample(distA, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resA2.Probabilities != probA || resA3.Probabilities != probA {
		t.Fatal("a recently used distribution rebuilt the probability matrix")
	}
}

// TestProbCacheBounds pins the matrix cache's eviction: least recently
// used first beyond probCacheEntries matrices, and every older matrix
// once those older than the newest exceed probCacheCells cells.
func TestProbCacheBounds(t *testing.T) {
	var c probCache[int]
	builds := 0
	get := func(key, dim int) *probgen.Matrix {
		t.Helper()
		m, stopped := c.get([]int{key}, func() (*probgen.Matrix, bool) {
			builds++
			return probgen.NewMatrix(dim), false
		})
		if stopped {
			t.Fatal("unexpected stop")
		}
		return m
	}
	cached := func(key int) bool {
		t.Helper()
		before := builds
		get(key, 2)
		return builds == before
	}

	for key := 1; key <= probCacheEntries; key++ {
		get(key, 2)
	}
	if !cached(1) {
		t.Fatal("a matrix within the entry bound was rebuilt")
	}
	get(probCacheEntries+1, 2) // evicts key 2, the least recently used
	if !cached(1) || cached(2) {
		t.Fatal("eviction beyond the entry bound did not drop the least recently used matrix")
	}

	big := 1
	for big*big <= probCacheCells {
		big++
	}
	get(100, big)
	if len(c.entries) == 1 {
		t.Fatal("a big newest matrix evicted the older small ones")
	}
	get(101, 2) // the big matrix is now older and over the cell budget
	if len(c.entries) != 1 || cached(100) {
		t.Fatalf("%d entries after the cell budget was exceeded, want only the newest", len(c.entries))
	}
}

// TestEnginePreTrippedStopUntouched: a stop observed on entry must
// return par.ErrStopped without reading randomness or touching the
// caller's graph.
func TestEnginePreTrippedStopUntouched(t *testing.T) {
	stop := &par.Stop{}
	stop.Set()

	eng := NewEngine(Options{Workers: 1, Seed: 4, SwapIterations: 8})
	defer eng.Close()

	el := ringEdges(500)
	before := cloneEdges(el)
	if _, err := eng.ShuffleSample(el, 0, stop); !errors.Is(err, par.ErrStopped) {
		t.Fatalf("pre-tripped stop: got err %v, want par.ErrStopped", err)
	}
	for i := range before {
		if el.Edges[i] != before[i] {
			t.Fatalf("pre-tripped stop mutated the input at edge %d", i)
		}
	}

	dist := mustDist(t, map[int64]int64{2: 100})
	if _, err := eng.GenerateSample(dist, 0, stop); !errors.Is(err, par.ErrStopped) {
		t.Fatalf("pre-tripped stop: got err %v, want par.ErrStopped", err)
	}
}

// TestEngineMidRunStopLeavesValidGraph trips the flag while a long mix
// is running: the call must return par.ErrStopped promptly, the edge
// list must keep its degree sequence and edge count (valid but
// under-mixed), and the engine must remain usable afterwards.
func TestEngineMidRunStopLeavesValidGraph(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, Seed: 11, SwapIterations: 100_000})
	defer eng.Close()

	el := ringEdges(20000)
	degrees := el.Degrees(1)
	stop := &par.Stop{}
	go func() {
		time.Sleep(10 * time.Millisecond)
		stop.Set()
	}()
	start := time.Now()
	_, err := eng.ShuffleSample(el, 0, stop)
	elapsed := time.Since(start)
	if !errors.Is(err, par.ErrStopped) {
		t.Fatalf("mid-run stop: got err %v, want par.ErrStopped", err)
	}
	// 100k iterations on a 20k ring would run for minutes; a prompt
	// cooperative exit is orders of magnitude faster. The generous bound
	// keeps the check meaningful without flaking on loaded machines.
	if elapsed > 30*time.Second {
		t.Fatalf("mid-run stop took %v; cancellation latency is not bounded", elapsed)
	}

	if len(el.Edges) != 20000 {
		t.Fatalf("edge count changed: %d", len(el.Edges))
	}
	after := el.Degrees(1)
	for i := range degrees {
		if degrees[i] != after[i] {
			t.Fatalf("mid-run stop broke the degree sequence at vertex %d", i)
		}
	}
	if rep := el.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("mid-run stop left a non-simple graph: %+v", rep)
	}

	// The abandoned sample must not poison the session: a second run on
	// the same engine must swap validly again. (It is stopped too — the
	// session's 100k-iteration budget is deliberately unreachable — so
	// the assertion is that it runs and preserves invariants, not that
	// it completes.)
	el2 := ringEdges(1000)
	deg2 := el2.Degrees(1)
	stop2 := &par.Stop{}
	go func() {
		time.Sleep(10 * time.Millisecond)
		stop2.Set()
	}()
	if _, err := eng.ShuffleSample(el2, 1, stop2); !errors.Is(err, par.ErrStopped) {
		t.Fatalf("engine unusable after stop: %v", err)
	}
	after2 := el2.Degrees(1)
	for i := range deg2 {
		if deg2[i] != after2[i] {
			t.Fatalf("second run broke the degree sequence at vertex %d", i)
		}
	}
}

// TestEngineConcurrentStopRace hammers cancellation from a separate
// goroutine while parallel workers are mid-phase — the scenario the
// race detector checks when this package runs under -race.
func TestEngineConcurrentStopRace(t *testing.T) {
	dist := powerlaw(t, 3000, 50, 2.1, 5)
	eng := NewEngine(Options{Workers: 4, Seed: 2, SwapIterations: 50})
	defer eng.Close()
	for trial := 0; trial < 8; trial++ {
		stop := &par.Stop{}
		var wg sync.WaitGroup
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			time.Sleep(d)
			stop.Set()
		}(time.Duration(trial) * 500 * time.Microsecond)
		_, err := eng.GenerateSample(dist, uint64(trial), stop)
		wg.Wait()
		if err != nil && !errors.Is(err, par.ErrStopped) {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
	}
}
