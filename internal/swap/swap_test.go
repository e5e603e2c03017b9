package swap

import (
	"math"
	"sort"
	"testing"

	"nullgraph/internal/graph"
	"nullgraph/internal/hashtable"
	"nullgraph/internal/rng"
)

// ring returns a cycle graph on n vertices — simple, connected, and
// degree-regular, so every invariant check is easy to state.
func ring(n int) *graph.EdgeList {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	return graph.NewEdgeList(edges, n)
}

func degreesOf(el *graph.EdgeList) []int64 { return el.Degrees(1) }

func sortedCopy(d []int64) []int64 {
	c := make([]int64, len(d))
	copy(c, d)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunPreservesInvariants(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		el := ring(500)
		before := degreesOf(el)
		m := el.NumEdges()
		res := Run(el, Options{Iterations: 10, Workers: workers, Seed: 42})
		if el.NumEdges() != m {
			t.Fatalf("workers=%d: edge count changed: %d -> %d", workers, m, el.NumEdges())
		}
		if !equalInt64(before, degreesOf(el)) {
			t.Fatalf("workers=%d: degree sequence changed", workers)
		}
		if rep := el.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("workers=%d: output not simple: %+v", workers, rep)
		}
		if res.TotalSuccesses == 0 {
			t.Errorf("workers=%d: no successful swaps on a 500-ring in 10 iterations", workers)
		}
		if len(res.PerIteration) != 10 {
			t.Errorf("workers=%d: %d iteration stats, want 10", workers, len(res.PerIteration))
		}
		for i, s := range res.PerIteration {
			if s.Attempts != int64(m/2) {
				t.Errorf("workers=%d iter %d: attempts = %d, want %d", workers, i, s.Attempts, m/2)
			}
			if s.Successes > s.Attempts {
				t.Errorf("workers=%d iter %d: successes %d > attempts %d", workers, i, s.Successes, s.Attempts)
			}
		}
	}
}

func TestRunActuallyChangesGraph(t *testing.T) {
	el := ring(1000)
	orig := el.Clone()
	Run(el, Options{Iterations: 5, Workers: 4, Seed: 7})
	if el.EqualAsSets(orig) {
		t.Error("5 iterations left a 1000-ring unchanged")
	}
}

func TestRunDeterministicSingleWorker(t *testing.T) {
	// Bit-exact reproducibility holds for Workers=1; with more workers
	// concurrent proposals of the same new edge race benignly (see
	// Options.Seed), so only invariants are asserted there.
	a, b := ring(2000), ring(2000)
	Run(a, Options{Iterations: 4, Workers: 1, Seed: 11})
	Run(b, Options{Iterations: 4, Workers: 1, Seed: 11})
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("same (seed,workers=1) diverged at edge %d", i)
		}
	}
	c := ring(2000)
	Run(c, Options{Iterations: 4, Workers: 1, Seed: 12})
	if a.EqualAsSets(c) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRunQuadraticProbing(t *testing.T) {
	el := ring(300)
	before := degreesOf(el)
	Run(el, Options{Iterations: 6, Workers: 4, Seed: 1, Probing: hashtable.Quadratic})
	if !equalInt64(before, degreesOf(el)) {
		t.Fatal("degree sequence changed under quadratic probing")
	}
	if rep := el.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("not simple: %+v", rep)
	}
}

func TestRunTinyGraphs(t *testing.T) {
	// m < 2: nothing to do, no panic.
	single := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}}, 2)
	res := Run(single, Options{Iterations: 3, Seed: 1})
	if res.TotalSuccesses != 0 {
		t.Error("swapped a single edge")
	}
	empty := graph.NewEdgeList(nil, 0)
	Run(empty, Options{Iterations: 3, Seed: 1})
	// Two edges sharing a vertex: any swap makes a loop or duplicate;
	// engine must reject everything and keep the graph intact.
	wedge := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 3)
	res = Run(wedge, Options{Iterations: 10, Seed: 3})
	if res.TotalSuccesses != 0 {
		t.Errorf("committed %d impossible swaps on a wedge", res.TotalSuccesses)
	}
	if rep := wedge.CheckSimplicity(); !rep.IsSimple() {
		t.Errorf("wedge corrupted: %+v", rep)
	}
}

func TestZeroIterations(t *testing.T) {
	el := ring(10)
	orig := el.Clone()
	res := Run(el, Options{Iterations: 0, Seed: 5})
	if len(res.PerIteration) != 0 || !el.EqualAsSets(orig) {
		t.Error("zero iterations had effects")
	}
}

func TestSimplifiesMultigraph(t *testing.T) {
	// A dense multigraph: 50 copies of the same edge plus a pool of
	// fresh vertices to swap against.
	var edges []graph.Edge
	for i := 0; i < 50; i++ {
		edges = append(edges, graph.Edge{U: 0, V: 1})
	}
	for i := int32(2); i < 300; i += 2 {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	el := graph.NewEdgeList(edges, 302)
	before := degreesOf(el)
	Run(el, Options{Iterations: 60, Workers: 4, Seed: 9})
	if !equalInt64(before, degreesOf(el)) {
		t.Fatal("degree sequence changed while simplifying")
	}
	rep := el.CheckSimplicity()
	if !rep.IsSimple() {
		t.Errorf("multigraph not simplified after 60 iterations: %+v", rep)
	}
}

func TestSimplicityIsInvariantOncesSimple(t *testing.T) {
	el := ring(100)
	for it := 0; it < 20; it++ {
		Run(el, Options{Iterations: 1, Workers: 2, Seed: uint64(it)})
		if rep := el.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("iteration %d broke simplicity: %+v", it, rep)
		}
	}
}

func TestTrackSwappedMonotone(t *testing.T) {
	el := ring(400)
	var fractions []float64
	Run(el, Options{
		Iterations: 12, Workers: 2, Seed: 21, TrackSwapped: true,
		OnIteration: func(_ int, s IterStats) { fractions = append(fractions, s.EverSwapped) },
	})
	if len(fractions) != 12 {
		t.Fatalf("got %d callbacks", len(fractions))
	}
	for i := 1; i < len(fractions); i++ {
		if fractions[i] < fractions[i-1]-1e-12 {
			t.Errorf("EverSwapped decreased: %v -> %v", fractions[i-1], fractions[i])
		}
	}
	if fractions[len(fractions)-1] <= 0 {
		t.Error("EverSwapped never rose above 0")
	}
}

func TestRunUntilMixed(t *testing.T) {
	eng := NewEngine(ring(256), Options{Workers: 2, Seed: 33, TrackSwapped: true})
	defer eng.Close()
	res, mixed := eng.Run(200, UntilMixed{})
	if !mixed {
		t.Fatalf("256-ring did not fully mix in 200 iterations (%d run)", len(res.PerIteration))
	}
	last := res.PerIteration[len(res.PerIteration)-1]
	if last.EverSwapped < 1.0 {
		t.Errorf("mixed=true but EverSwapped = %v", last.EverSwapped)
	}
	// The paper observes ~10 iterations suffice; allow generous slack
	// but catch pathological slowness.
	if len(res.PerIteration) > 100 {
		t.Errorf("mixing took %d iterations, expected ~10-40", len(res.PerIteration))
	}
}

func TestRunUntilMixedBudgetExhausted(t *testing.T) {
	// A wedge can never swap, so mixing is impossible; the budgeted
	// loop must terminate and report mixed=false.
	el := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 3)
	eng := NewEngine(el, Options{Workers: 1, Seed: 1, TrackSwapped: true})
	defer eng.Close()
	res, mixed := eng.Run(5, UntilMixed{})
	if mixed {
		t.Error("impossible mixing reported as achieved")
	}
	if len(res.PerIteration) != 5 {
		t.Errorf("ran %d iterations, want the full budget of 5", len(res.PerIteration))
	}
}

func TestSerialReferencePreservesInvariants(t *testing.T) {
	el := ring(200)
	before := degreesOf(el)
	succ, err := RunSerial(el, 5000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if succ == 0 {
		t.Error("serial chain committed nothing")
	}
	if !equalInt64(before, degreesOf(el)) {
		t.Fatal("serial chain changed degrees")
	}
	if rep := el.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("serial chain broke simplicity: %+v", rep)
	}
}

func TestSerialRejectsMultigraph(t *testing.T) {
	el := graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}})
	if _, err := RunSerial(el, 10, 1); err == nil {
		t.Error("multigraph accepted by serial reference")
	}
}

// enumerate all perfect matchings of 2k labeled vertices as canonical
// sorted key-strings.
func matchingKey(el *graph.EdgeList) string {
	keys := make([]uint64, len(el.Edges))
	for i, e := range el.Edges {
		keys[i] = e.Key()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, 0, len(keys)*8)
	for _, k := range keys {
		for b := 0; b < 8; b++ {
			out = append(out, byte(k>>(8*b)))
		}
	}
	return string(out)
}

// TestSwapUniformityMatchings repeats the paper's Milo-style validation:
// the stationary distribution over the 15 perfect matchings of K6's
// 1-regular sequence must be uniform. Each trial starts from the same
// matching and runs enough parallel iterations to mix.
func TestSwapUniformityMatchings(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const trials = 6000
	counts := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		el := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}}, 6)
		Run(el, Options{Iterations: 30, Workers: 1, Seed: rng.Mix64(uint64(trial) + 1)})
		counts[matchingKey(el)]++
	}
	if len(counts) != 15 {
		t.Fatalf("reached %d matchings, want all 15", len(counts))
	}
	want := float64(trials) / 15
	// chi-square with 14 dof; 5-sigma-ish bound on each cell plus a
	// total statistic sanity check.
	var chi2 float64
	for key, c := range counts {
		diff := float64(c) - want
		chi2 += diff * diff / want
		if math.Abs(diff) > 6*math.Sqrt(want) {
			t.Errorf("matching %x: %d draws, want ~%v", key, c, want)
		}
	}
	// P(chi2_14 > 60) ~ 1e-7.
	if chi2 > 60 {
		t.Errorf("chi-square = %v over 14 dof, distribution not uniform", chi2)
	}
}

// TestSwapUniformityMatchesSerial compares the parallel engine's
// long-run edge marginals against the serial reference chain on a small
// skewed graph: for every vertex pair, the probability that the pair is
// an edge must agree between the two samplers.
func TestSwapUniformityMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	base := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 4, V: 5}}
	const n = 6
	const trials = 4000
	marginalPar := map[uint64]int{}
	marginalSer := map[uint64]int{}
	for trial := 0; trial < trials; trial++ {
		elP := graph.NewEdgeList(append([]graph.Edge(nil), base...), n)
		Run(elP, Options{Iterations: 25, Workers: 2, Seed: rng.Mix64(uint64(trial) + 77)})
		for _, e := range elP.Edges {
			marginalPar[e.Key()]++
		}
		elS := graph.NewEdgeList(append([]graph.Edge(nil), base...), n)
		if _, err := RunSerial(elS, 500, rng.Mix64(uint64(trial)+123456)); err != nil {
			t.Fatal(err)
		}
		for _, e := range elS.Edges {
			marginalSer[e.Key()]++
		}
	}
	// Compare each pair's occupancy.
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			k := (graph.Edge{U: u, V: v}).Key()
			pp := float64(marginalPar[k]) / trials
			ps := float64(marginalSer[k]) / trials
			// Binomial std dev ~ sqrt(p(1-p)/trials) ≈ 0.008; allow 6x
			// plus slack for residual mixing differences.
			if math.Abs(pp-ps) > 0.06 {
				t.Errorf("edge (%d,%d): parallel marginal %v vs serial %v", u, v, pp, ps)
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Iterations: -1}).Validate(); err == nil {
		t.Error("negative iterations accepted")
	}
	if err := (Options{Iterations: 5}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func BenchmarkSwapIteration(b *testing.B) {
	el := ring(1 << 18)
	eng := NewEngine(el, Options{Workers: 0, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.SetBytes(int64(el.NumEdges()) * 8)
}

func BenchmarkSwapIterationSerial(b *testing.B) {
	el := ring(1 << 18)
	eng := NewEngine(el, Options{Workers: 1, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.SetBytes(int64(el.NumEdges()) * 8)
}

// BenchmarkSwapStep is the hot-path tracking benchmark (ISSUE 1): one
// full iteration on a >=1M-edge graph, reporting allocations and swap
// throughput. cmd/benchswap emits the same measurement as BENCH_swap.json.
func BenchmarkSwapStep(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			el := ring(1 << 20)
			eng := NewEngine(el, Options{Workers: bc.workers, Seed: 1})
			eng.Step() // warm-up: populate scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			var successes int64
			for i := 0; i < b.N; i++ {
				successes += eng.Step().Successes
			}
			b.StopTimer()
			b.SetBytes(int64(el.NumEdges()) * 8)
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(successes)/b.Elapsed().Seconds(), "swaps/sec")
			}
		})
	}
}

// Probing ablation (DESIGN.md): linear vs quadratic collision handling
// under the swap workload.
func BenchmarkSwapIterationLinearProbing(b *testing.B)    { benchProbing(b, hashtable.Linear) }
func BenchmarkSwapIterationQuadraticProbing(b *testing.B) { benchProbing(b, hashtable.Quadratic) }

func benchProbing(b *testing.B, probing hashtable.Probing) {
	el := ring(1 << 18)
	eng := NewEngine(el, Options{Workers: 0, Seed: 1, Probing: probing})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.SetBytes(int64(el.NumEdges()) * 8)
}

// Tracking ablation: the cost of the EverSwapped mixing tracker (one
// extra permutation plus a parallel sum per iteration).
func BenchmarkSwapIterationTracked(b *testing.B) {
	el := ring(1 << 18)
	eng := NewEngine(el, Options{Workers: 0, Seed: 1, TrackSwapped: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.SetBytes(int64(el.NumEdges()) * 8)
}
