package nullgraph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"nullgraph/internal/obs"
)

func digraphCycle(n int) *Digraph {
	arcs := make([]Arc, n)
	for i := 0; i < n; i++ {
		arcs[i] = Arc{From: int32(i), To: int32((i + 1) % n)}
	}
	return NewDigraph(arcs, n)
}

func TestGenerateDirectedEndToEnd(t *testing.T) {
	// Joint distribution from a synthetic digraph: draw out/in degrees
	// from mirrored skewed sequences.
	out := make([]int64, 3000)
	in := make([]int64, 3000)
	for i := range out {
		out[i] = int64(i%7) + 1
		in[len(in)-1-i] = int64(i%7) + 1
	}
	dist := JointFromDegrees(out, in)
	res, err := GenerateDirected(dist, Options{Seed: 3, SwapIterations: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("not simple: %+v", rep)
	}
	got := float64(res.Graph.NumArcs())
	want := float64(dist.NumArcs())
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("arcs %v, want ~%v", got, want)
	}
	if len(res.SwapIterations) != 5 {
		t.Errorf("swap stats = %d", len(res.SwapIterations))
	}
}

func TestShuffleDirectedFacade(t *testing.T) {
	g := digraphCycle(300)
	outBefore, inBefore := g.Degrees(1)
	res, err := ShuffleDirected(g, Options{Seed: 5, MixUntilSwapped: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mixed {
		t.Error("cycle did not mix")
	}
	outAfter, inAfter := g.Degrees(1)
	for v := range outBefore {
		if outBefore[v] != outAfter[v] || inBefore[v] != inAfter[v] {
			t.Fatalf("degrees changed at %d", v)
		}
	}
}

// TestShuffleDirectedAdaptive drives the directed adaptive stopper: the
// outcome must be adaptive on the success-rate trace (the directed
// chain's only wired statistic) with degrees preserved.
func TestShuffleDirectedAdaptive(t *testing.T) {
	g := digraphCycle(300)
	outBefore, inBefore := g.Degrees(1)
	res, err := ShuffleDirected(g, Options{
		Seed:       5,
		StopPolicy: &StopPolicy{Floor: 6, Budget: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stop
	if st == nil || st.Policy != "adaptive" {
		t.Fatalf("Stop = %+v, want adaptive", st)
	}
	if st.Statistic != "success-rate" {
		t.Errorf("directed adaptive statistic = %q, want success-rate", st.Statistic)
	}
	if st.Iterations != len(res.SwapIterations) || st.Iterations < 6 || st.Iterations > 64 {
		t.Errorf("iterations %d (stats %d) outside [6, 64]", st.Iterations, len(res.SwapIterations))
	}
	outAfter, inAfter := g.Degrees(1)
	for v := range outBefore {
		if outBefore[v] != outAfter[v] || inBefore[v] != inAfter[v] {
			t.Fatalf("degrees changed at %d", v)
		}
	}
}

func TestKleitmanWangFacade(t *testing.T) {
	dist := JointFromDegrees([]int64{1, 1, 1}, []int64{1, 1, 1})
	g, err := KleitmanWang(dist)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != 3 {
		t.Errorf("arcs = %d", g.NumArcs())
	}
	back := JointOf(g, 1)
	if len(back.Classes) != len(dist.Classes) {
		t.Error("realization changed joint distribution")
	}
	// Non-realizable input errors.
	if _, err := KleitmanWang(JointFromDegrees([]int64{2, 0}, []int64{0, 2})); err == nil {
		t.Error("non-realizable accepted")
	}
}

func TestAnalyticsFacade(t *testing.T) {
	tri := NewGraph([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}}, 5)
	if got := CountTriangles(tri, 1); got != 1 {
		t.Errorf("triangles = %d", got)
	}
	_, count := ConnectedComponents(tri, 1)
	if count != 2 {
		t.Errorf("components = %d", count)
	}
	if got := GlobalClusteringCoefficient(tri, 1); got <= 0 {
		t.Errorf("transitivity = %v", got)
	}
}

// goldenJoint is the input of the directed golden hashes: three classes
// of 2200 vertices, so every ordered class pair (the three diagonal
// spaces included) spans more than one 1<<22-index edge-skip chunk.
func goldenJoint() *JointDistribution {
	var out, in []int64
	for c := int64(1); c <= 3; c++ {
		for v := 0; v < 2200; v++ {
			out, in = append(out, c), append(in, 4-c)
		}
	}
	return JointFromDegrees(out, in)
}

// arcHash is FNV-64a over the arc keys, little-endian, in array order.
func arcHash(arcs []Arc) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range arcs {
		binary.LittleEndian.PutUint64(buf[:], a.Key())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenGenerateDirected pins GenerateDirected's exact output: the
// whole pipeline at Workers=1, and the edge-skipping stream alone
// (SwapIterations 0) at Workers 1 and 4, which must agree because every
// chunk draws from a stream keyed by its index. A parallel swap sweep
// is not deterministic, so no swapped Workers=4 hash exists.
func TestGoldenGenerateDirected(t *testing.T) {
	cases := []struct {
		workers, swaps int
		want           uint64
	}{
		{1, 10, 0x149075fa2ec0299b},
		{1, 0, 0x39f76a6ee1b49613},
		{4, 0, 0x39f76a6ee1b49613},
	}
	for _, c := range cases {
		res, err := GenerateDirected(goldenJoint(), Options{Workers: c.workers, Seed: 17, SwapIterations: c.swaps})
		if err != nil {
			t.Fatal(err)
		}
		if got := arcHash(res.Graph.Arcs); got != c.want {
			t.Errorf("workers=%d swaps=%d: output hash = %#x, want %#x", c.workers, c.swaps, got, c.want)
		}
	}
}

// goldenShuffleDirected is ShuffleDirected's Workers=1 output hash on
// the Kleitman-Wang realization of goldenJoint (Seed 17, 10 iterations).
const goldenShuffleDirected = uint64(0x45b774ecb40f013d)

// TestGoldenShuffleDirected pins ShuffleDirected's exact Workers=1
// output on the Kleitman-Wang realization of goldenJoint.
func TestGoldenShuffleDirected(t *testing.T) {
	g, err := KleitmanWang(goldenJoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShuffleDirected(g, Options{Workers: 1, Seed: 17, SwapIterations: 10}); err != nil {
		t.Fatal(err)
	}
	if got := arcHash(g.Arcs); got != goldenShuffleDirected {
		t.Fatalf("output hash = %#x, want %#x", got, goldenShuffleDirected)
	}
}

// TestDirectedReportBitIdentical: instrumenting a directed run changes
// nothing it samples (Workers=1), and the report carries the edge-skip
// spaces of the ordered kind, every swap iteration, the phases and the
// stop decision.
func TestDirectedReportBitIdentical(t *testing.T) {
	opt := Options{Workers: 1, Seed: 17, SwapIterations: 10}
	plain, err := GenerateDirected(goldenJoint(), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := arcHash(plain.Graph.Arcs)
	opt.CollectReport = true
	inst, err := GenerateDirected(goldenJoint(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := arcHash(inst.Graph.Arcs); got != want {
		t.Fatalf("instrumented output hash %#x, plain %#x", got, want)
	}
	if !obs.Enabled {
		return
	}
	rep := inst.Report
	if rep == nil || rep.EdgeSkip == nil || rep.Phases == nil || rep.Stop == nil {
		t.Fatalf("report sections missing: %+v", rep)
	}
	// Three classes, all nine ordered pairs with P > 0.
	if len(rep.EdgeSkip.Spaces) != 9 || rep.EdgeSkip.TotalEdges != int64(len(inst.Graph.Arcs)) {
		t.Errorf("edge-skip section: %d spaces, %d edges; want 9 spaces, %d edges",
			len(rep.EdgeSkip.Spaces), rep.EdgeSkip.TotalEdges, len(inst.Graph.Arcs))
	}
	if len(rep.Iterations) != 10 || rep.Stop.Iterations != 10 {
		t.Errorf("swap section: %d iterations, stop after %d; want 10", len(rep.Iterations), rep.Stop.Iterations)
	}

	g, err := KleitmanWang(goldenJoint())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ShuffleDirected(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := arcHash(g.Arcs); got != goldenShuffleDirected {
		t.Errorf("instrumented ShuffleDirected hash %#x, want the golden plain hash", got)
	}
	if res.Report == nil || len(res.Report.Iterations) != 10 {
		t.Errorf("ShuffleDirected report: %+v", res.Report)
	}
}
