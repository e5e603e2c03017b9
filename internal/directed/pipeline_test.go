package directed_test

import (
	"math"
	"testing"

	"nullgraph/internal/core"
	"nullgraph/internal/directed"
	"nullgraph/internal/edgeskip"
	"nullgraph/internal/probgen"
)

// The directed pipeline — directed probabilities, ordered-pair
// edge-skipping, the directed swap chain — runs in a core.Engine
// session; these tests drive it end to end.

func generate(d *directed.JointDistribution, opt core.Options) (*directed.ArcList, *core.Result, error) {
	eng := core.NewEngine(opt)
	defer eng.Close()
	res, err := eng.GenerateDirectedSample(d, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	return &directed.ArcList{Arcs: directed.EdgesAsArcs(res.Graph.Edges), NumVertices: res.Graph.NumVertices}, res, nil
}

// generateArcs runs the ordered-pair edge-skipping stage alone: one
// fresh Generator per call, so the returned arcs own their buffer.
func generateArcs(d *directed.JointDistribution, m *probgen.Matrix, workers int, seed uint64) (*directed.ArcList, error) {
	el, err := edgeskip.NewGenerator(edgeskip.Options{Workers: workers}).GenerateOrdered(d.Counts(), m, seed, nil)
	if err != nil {
		return nil, err
	}
	return &directed.ArcList{Arcs: directed.EdgesAsArcs(el.Edges), NumVertices: el.NumVertices}, nil
}

func TestGenerateArcsSimpleAndSized(t *testing.T) {
	d := directed.RandomJoint(t, 3000, 5, 17)
	m := directed.GenerateProbabilities(d, 2)
	want := directed.ExpectedArcs(d, m)
	var total float64
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		al, err := generateArcs(d, m, 4, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if rep := al.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("not simple: %+v", rep)
		}
		total += float64(al.NumArcs())
	}
	mean := total / trials
	tol := 5 * math.Sqrt(want) / math.Sqrt(trials)
	if math.Abs(mean-want) > tol {
		t.Errorf("mean arcs %v, want %v ± %v", mean, want, tol)
	}
}

func TestGenerateArcsDeterministicAcrossWorkers(t *testing.T) {
	d := directed.RandomJoint(t, 1000, 4, 23)
	m := directed.GenerateProbabilities(d, 1)
	a, err := generateArcs(d, m, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateArcs(d, m, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arcs) != len(b.Arcs) {
		t.Fatalf("arc counts differ: %d vs %d", len(a.Arcs), len(b.Arcs))
	}
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			t.Fatalf("arc %d differs across worker counts", i)
		}
	}
}

func TestGenerateArcsDiagonalExcludesLoops(t *testing.T) {
	// One class, P=1: complete digraph without loops.
	out := []int64{4, 4, 4, 4, 4}
	in := []int64{4, 4, 4, 4, 4}
	d := directed.FromJointDegrees(out, in)
	m := probgen.NewMatrix(1)
	m.SetOrdered(0, 0, 1)
	al, err := generateArcs(d, m, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumArcs() != 20 {
		t.Errorf("arcs = %d, want 20 (complete digraph on 5)", al.NumArcs())
	}
	for _, a := range al.Arcs {
		if a.IsLoop() {
			t.Fatalf("loop emitted: %v", a)
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	d := directed.RandomJoint(t, 4000, 5, 31)
	al, res, err := generate(d, core.Options{Workers: 4, Seed: 7, SwapIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep := al.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("pipeline output not simple: %+v", rep)
	}
	// Arc count within a few percent.
	got := float64(al.NumArcs())
	target := float64(d.NumArcs())
	if math.Abs(got-target) > 0.05*target {
		t.Errorf("arcs %v vs target %v", got, target)
	}
	if res.Phases.Total() <= 0 {
		t.Error("phases not recorded")
	}
	if len(res.Swaps.PerIteration) != 6 {
		t.Errorf("swap iterations = %d", len(res.Swaps.PerIteration))
	}
}

func TestPipelineRejectsUnbalanced(t *testing.T) {
	d := &directed.JointDistribution{Classes: []directed.JointClass{{Out: 2, In: 1, Count: 3}}}
	if _, _, err := generate(d, core.Options{}); err == nil {
		t.Error("unbalanced joint distribution accepted")
	}
}

func TestShuffleDirectedPreservesJointDegrees(t *testing.T) {
	al := directed.CycleDigraph(400)
	before := directed.OfArcList(al, 1)
	eng := core.NewEngine(core.Options{Workers: 2, Seed: 3, MixUntilSwapped: true})
	defer eng.Close()
	res, err := eng.ShuffleDirectedSample(al, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := directed.OfArcList(al, 1)
	if len(before.Classes) != len(after.Classes) {
		t.Fatal("joint distribution changed")
	}
	for i := range before.Classes {
		if before.Classes[i] != after.Classes[i] {
			t.Fatal("joint distribution changed")
		}
	}
	if !res.Mixed {
		t.Error("cycle did not mix")
	}
}

func BenchmarkDirectedPipeline(b *testing.B) {
	d := directed.RandomJoint(b, 50000, 8, 1)
	eng := core.NewEngine(core.Options{Seed: 1, SwapIterations: 1})
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.GenerateDirectedSample(d, uint64(i), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Graph.NumEdges()) * 8)
	}
}
