package swap

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"nullgraph/internal/graph"
	"nullgraph/internal/obs"
	"nullgraph/internal/permute"
	"nullgraph/internal/rng"
)

// edgeHash fingerprints an edge list in order (not as a set), so it
// detects any difference in the final array layout, not just the graph.
func edgeHash(el *graph.EdgeList) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range el.Edges {
		binary.LittleEndian.PutUint64(buf[:], e.Key())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenSerialChain pins the exact serial output of the engine: the
// value was captured from the pre-buffer-reuse implementation, so any
// refactor that perturbs the Workers=1 bit-stream (seed derivations,
// permutation, sweep order, rejection logic) fails here.
func TestGoldenSerialChain(t *testing.T) {
	el := ring(2000)
	Run(el, Options{Iterations: 4, Workers: 1, Seed: 11})
	const want = uint64(0x19e55278175fc9c9)
	if got := edgeHash(el); got != want {
		t.Fatalf("serial chain output hash = %#x, want %#x", got, want)
	}
}

// TestGoldenStubCells pins the serial output of the two non-simple
// parallel cells the same way TestGoldenSerialChain pins the simple
// one: loopy-stub exercises the duplicate-only acceptance rule and
// multigraph-stub the accept-all sweep without a table.
func TestGoldenStubCells(t *testing.T) {
	for _, tc := range []struct {
		space graph.Space
		want  uint64
	}{
		{graph.LoopyStub, 0x65a152c9c75d6101},
		{graph.MultigraphStub, 0xabb7828153cffa0d},
	} {
		el := ring(2000)
		Run(el, Options{Space: tc.space, Iterations: 4, Workers: 1, Seed: 11})
		if got := edgeHash(el); got != tc.want {
			t.Errorf("%s: serial chain output hash = %#x, want %#x", tc.space, got, tc.want)
		}
	}
}

// naiveStep is an independent map-based reimplementation of one
// Workers=1 iteration, sharing only the seed-derivation helpers with
// the engine. It is the executable spec the buffered engine must match.
func naiveStep(el *graph.EdgeList, seed uint64, it int) {
	m := len(el.Edges)
	if m < 2 {
		return
	}
	set := make(map[uint64]bool, 2*m)
	testAndSet := func(key uint64) bool {
		if set[key] {
			return true
		}
		set[key] = true
		return false
	}
	for _, e := range el.Edges {
		testAndSet(e.Key())
	}
	h := permute.Targets(permSeedFor(seed, it), m, 1)
	for i := range el.Edges {
		j := h[i]
		el.Edges[i], el.Edges[j] = el.Edges[j], el.Edges[i]
	}
	var src rng.Source
	src.Reseed(sweepWorkerSeed(sweepSeedFor(seed, it), 0))
	for k := 0; k < m/2; k++ {
		i, j := 2*k, 2*k+1
		e, f := el.Edges[i], el.Edges[j]
		var g, hh graph.Edge
		if src.Bool() {
			g = graph.Edge{U: e.U, V: f.U}
			hh = graph.Edge{U: e.V, V: f.V}
		} else {
			g = graph.Edge{U: e.U, V: f.V}
			hh = graph.Edge{U: e.V, V: f.U}
		}
		if g.IsLoop() || hh.IsLoop() {
			continue
		}
		if testAndSet(g.Key()) {
			continue
		}
		if testAndSet(hh.Key()) {
			continue
		}
		el.Edges[i], el.Edges[j] = g, hh
	}
}

// TestEngineMatchesNaiveReference locks the buffered engine to the
// naive per-iteration spec above, edge for edge, across several
// iterations and graph shapes.
func TestEngineMatchesNaiveReference(t *testing.T) {
	for _, n := range []int{7, 64, 999, 5000} {
		const seed = 31
		fast := ring(n)
		slow := ring(n)
		eng := NewEngine(fast, Options{Workers: 1, Seed: seed})
		for it := 0; it < 5; it++ {
			eng.Step()
			naiveStep(slow, seed, it)
			for i := range fast.Edges {
				if fast.Edges[i] != slow.Edges[i] {
					t.Fatalf("n=%d iteration %d: engine edge %d = %v, naive reference %v",
						n, it, i, fast.Edges[i], slow.Edges[i])
				}
			}
		}
		eng.Close()
	}
}

// TestEngineResetMatchesFresh locks Reset's contract: a reused engine
// rebound to a new edge list behaves bit-identically (Workers=1) to a
// freshly constructed engine, including after shrinking and regrowing.
func TestEngineResetMatchesFresh(t *testing.T) {
	eng := NewEngine(ring(3000), Options{Workers: 1, Seed: 5, TrackSwapped: true})
	defer eng.Close()
	for _, n := range []int{3000, 800, 4096} { // same size, shrink, grow
		reused := ring(n)
		eng.Reset(reused)
		var gotStats []IterStats
		for it := 0; it < 3; it++ {
			gotStats = append(gotStats, eng.Step())
		}
		fresh := ring(n)
		ref := NewEngine(fresh, Options{Workers: 1, Seed: 5, TrackSwapped: true})
		var wantStats []IterStats
		for it := 0; it < 3; it++ {
			wantStats = append(wantStats, ref.Step())
		}
		ref.Close()
		if edgeHash(reused) != edgeHash(fresh) {
			t.Fatalf("n=%d: reset engine diverged from fresh engine", n)
		}
		for it := range gotStats {
			if gotStats[it] != wantStats[it] {
				t.Fatalf("n=%d iteration %d: reset stats %+v, fresh stats %+v",
					n, it, gotStats[it], wantStats[it])
			}
		}
	}
}

// TestRunEngineHelpers covers the engine driver: a nil stopper runs the
// full budget, UntilMixed ends a tracked run once every edge swapped,
// and UntilMixed on an untracked engine panics instead of spinning.
func TestRunEngineHelpers(t *testing.T) {
	eng := NewEngine(ring(400), Options{Workers: 1, Seed: 2})
	defer eng.Close()
	res, fired := eng.Run(6, nil)
	if len(res.PerIteration) != 6 || fired {
		t.Fatalf("Run(6, nil) ran %d iterations (fired=%v), want 6", len(res.PerIteration), fired)
	}
	tracked := NewEngine(ring(256), Options{Workers: 1, Seed: 3, TrackSwapped: true})
	defer tracked.Close()
	if _, mixed := tracked.Run(200, UntilMixed{}); !mixed {
		t.Error("256-ring did not mix on a reusable engine")
	}
	// Reset restarts tracking: the fraction must drop back to zero.
	tracked.Reset(ring(256))
	if f := tracked.EverSwappedFraction(); f != 0 {
		t.Errorf("EverSwappedFraction after Reset = %v, want 0", f)
	}
	untracked := NewEngine(ring(64), Options{Workers: 1, Seed: 4})
	defer untracked.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("UntilMixed without TrackSwapped did not panic")
			}
		}()
		untracked.Run(1, UntilMixed{})
	}()
}

func TestEngineCloseIdempotent(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eng := NewEngine(ring(32), Options{Workers: workers, Seed: 1})
		eng.Step()
		eng.Close()
		eng.Close()
	}
}

// TestStepDoesNotAllocate is the tentpole's acceptance check in unit
// form: after warm-up, Step on a graph large enough to take the
// parallel permutation path must not touch the heap. The obs layer is
// compiled in here but disabled (no Recorder), which is exactly the
// configuration the CI alloc budget protects.
func TestStepDoesNotAllocate(t *testing.T) {
	el := ring(1 << 13) // above permute's serial cutoff
	eng := NewEngine(el, Options{Workers: 1, Seed: 1, TrackSwapped: true})
	defer eng.Close()
	eng.Step() // warm-up: scratch buffers materialize on first use
	if allocs := testing.AllocsPerRun(5, func() { eng.Step() }); allocs != 0 {
		t.Errorf("Step allocated %v objects per call after warm-up, want 0", allocs)
	}
}

// TestInstrumentedEngineMatchesPlain locks the observability layer's
// non-interference contract: attaching a recorder must not change the
// chain — the instrumented engine's edge stream is bit-identical to the
// plain engine's for the same seed.
func TestInstrumentedEngineMatchesPlain(t *testing.T) {
	if !obs.Enabled {
		t.Skip("observability compiled out (nullgraph_noobs)")
	}
	for _, workers := range []int{1, 4} {
		plain := ring(3000)
		instrumented := ring(3000)
		rec := obs.NewRecorder()
		Run(plain, Options{Iterations: 4, Workers: workers, Seed: 9, TrackSwapped: true})
		Run(instrumented, Options{Iterations: 4, Workers: workers, Seed: 9, TrackSwapped: true, Recorder: rec})
		if workers == 1 && edgeHash(plain) != edgeHash(instrumented) {
			t.Errorf("workers=%d: recorder changed the chain output", workers)
		}
		rep := rec.Report()
		if len(rep.Iterations) != 4 {
			t.Fatalf("workers=%d: report has %d iterations, want 4", workers, len(rep.Iterations))
		}
		// The rejection split is exhaustive: every proposal either
		// commits or lands in exactly one rejection counter.
		for it, r := range rep.Iterations {
			if got := r.Successes + r.RejectSelfLoop + r.RejectDuplicate + r.RejectPartnerDuplicate; got != r.Attempts {
				t.Errorf("workers=%d iteration %d: split sums to %d, want %d attempts", workers, it, got, r.Attempts)
			}
		}
		// Every registration probes the table: the histogram must hold
		// at least m probes per iteration.
		var probeCount int64
		for _, n := range rep.ProbeHistogram {
			probeCount += n
		}
		if probeCount < int64(4*3000) {
			t.Errorf("workers=%d: probe histogram holds %d samples, want >= %d", workers, probeCount, 4*3000)
		}
	}
}

// TestInstrumentedReportDeterministic locks the acceptance criterion:
// same seed and Workers=1 produce identical report counters.
func TestInstrumentedReportDeterministic(t *testing.T) {
	if !obs.Enabled {
		t.Skip("observability compiled out (nullgraph_noobs)")
	}
	collect := func() *obs.RunReport {
		rec := obs.NewRecorder()
		el := ring(2500)
		Run(el, Options{Iterations: 5, Workers: 1, Seed: 77, TrackSwapped: true, Recorder: rec})
		return rec.Report()
	}
	a, b := collect(), collect()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ across identical seeded runs:\n%+v\n%+v", a, b)
	}
	if a.SwapTotals.Successes == 0 || a.SwapTotals.FinalEverSwapped == 0 {
		t.Errorf("degenerate report: %+v", a.SwapTotals)
	}
}

// TestInstrumentedStepSteadyStateAllocs: with a recorder attached the
// per-Step cost is bounded by the iteration-record append — at most a
// couple of amortized allocations, never per-edge work.
func TestInstrumentedStepSteadyStateAllocs(t *testing.T) {
	rec := obs.NewRecorder()
	el := ring(1 << 13)
	eng := NewEngine(el, Options{Workers: 1, Seed: 1, TrackSwapped: true, Recorder: rec})
	defer eng.Close()
	for i := 0; i < 8; i++ {
		eng.Step() // warm-up; lets the iterations slice grow
	}
	if allocs := testing.AllocsPerRun(5, func() { eng.Step() }); allocs > 1 {
		t.Errorf("instrumented Step allocated %v objects per call, want <= 1 (amortized append)", allocs)
	}
}

// TestEngineResetRestartsReport: a rebound engine reports only its
// latest run (the session batch pattern).
func TestEngineResetRestartsReport(t *testing.T) {
	if !obs.Enabled {
		t.Skip("observability compiled out (nullgraph_noobs)")
	}
	rec := obs.NewRecorder()
	eng := NewEngine(ring(512), Options{Workers: 1, Seed: 6, Recorder: rec})
	defer eng.Close()
	eng.Step()
	eng.Step()
	eng.Reset(ring(512))
	eng.Step()
	if got := len(rec.Report().Iterations); got != 1 {
		t.Errorf("report holds %d iterations after Reset+1 Step, want 1", got)
	}
}
