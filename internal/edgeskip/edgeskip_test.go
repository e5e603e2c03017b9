package edgeskip

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"nullgraph/internal/degseq"
	"nullgraph/internal/graph"
	"nullgraph/internal/obs"
	"nullgraph/internal/probgen"
)

func mustDist(t testing.TB, counts map[int64]int64) *degseq.Distribution {
	t.Helper()
	d, err := degseq.FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// kinds are the generator's two space kinds behind one call shape, so a
// test takes the ordered kind as one more input. The ordered kind reads
// d as a class layout; under a symmetric matrix it draws each unordered
// pair's two orientations independently, so its expected size is twice
// the unordered kind's.
var kinds = []struct {
	name    string
	ordered bool
	gen     func(d *degseq.Distribution, m *probgen.Matrix, opt Options) (*graph.EdgeList, error)
}{
	{"unordered", false, Generate},
	{"ordered", true, func(d *degseq.Distribution, m *probgen.Matrix, opt Options) (*graph.EdgeList, error) {
		counts := make([]int64, d.NumClasses())
		for i, c := range d.Classes {
			counts[i] = c.Count
		}
		return NewGenerator(opt).GenerateOrdered(counts, m, opt.Seed, opt.Stop)
	}},
}

// isSimple reports no self-pair and no repeated pair, reading each edge
// as the arc U→V when ordered.
func isSimple(el *graph.EdgeList, ordered bool) bool {
	if !ordered {
		return el.CheckSimplicity().IsSimple()
	}
	seen := map[graph.Edge]bool{}
	for _, e := range el.Edges {
		if e.IsLoop() || seen[e] {
			return false
		}
		seen[e] = true
	}
	return true
}

func TestTriangularDecode(t *testing.T) {
	// Exhaustive bijection check over the first few thousand indices.
	seen := map[[2]int64]bool{}
	var x int64
	for u := int64(1); u < 120; u++ {
		for v := int64(0); v < u; v++ {
			gu, gv := triangular(x)
			if gu != u || gv != v {
				t.Fatalf("triangular(%d) = (%d,%d), want (%d,%d)", x, gu, gv, u, v)
			}
			if seen[[2]int64{gu, gv}] {
				t.Fatalf("pair (%d,%d) decoded twice", gu, gv)
			}
			seen[[2]int64{gu, gv}] = true
			x++
		}
	}
}

func TestTriangularDecodeLargeProperty(t *testing.T) {
	f := func(raw uint32) bool {
		x := int64(raw) * 4096 // exercise large indices
		u, v := triangular(x)
		return v >= 0 && v < u && u*(u-1)/2+v == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGenerateIsSimple(t *testing.T) {
	d := mustDist(t, map[int64]int64{2: 500, 5: 100, 20: 10})
	m := probgen.Generate(d, 2)
	el, err := Generate(d, m, Options{Workers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep := el.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("edge-skipping output not simple: %+v", rep)
	}
	if el.NumVertices != int(d.NumVertices()) {
		t.Errorf("NumVertices = %d, want %d", el.NumVertices, d.NumVertices())
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	d := mustDist(t, map[int64]int64{2: 2000, 7: 300, 40: 20})
	m := probgen.Generate(d, 2)
	for _, k := range kinds {
		a, err := k.gen(d, m, Options{Workers: 1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := k.gen(d, m, Options{Workers: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Edges) != len(b.Edges) {
			t.Fatalf("%s: edge counts differ: %d vs %d", k.name, len(a.Edges), len(b.Edges))
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("%s: edge %d differs between worker counts: %v vs %v", k.name, i, a.Edges[i], b.Edges[i])
			}
		}
		c, err := k.gen(d, m, Options{Workers: 4, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		if a.EqualAsSets(c) {
			t.Errorf("%s: different seeds gave identical graphs", k.name)
		}
	}
}

func TestGenerateEdgeCountNearExpectation(t *testing.T) {
	d := mustDist(t, map[int64]int64{3: 3000, 10: 500, 50: 20})
	m := probgen.Generate(d, 2)
	for _, k := range kinds {
		want := probgen.ExpectedEdges(d, m)
		if k.ordered {
			want *= 2
		}
		var total float64
		const trials = 20
		for trial := 0; trial < trials; trial++ {
			el, err := k.gen(d, m, Options{Workers: 4, Seed: uint64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			if !isSimple(el, k.ordered) {
				t.Fatalf("%s: output not simple", k.name)
			}
			total += float64(el.NumEdges())
		}
		mean := total / trials
		// Binomial std ≈ sqrt(want) per trial; mean of 20 trials within 5σ/√20.
		tol := 5 * math.Sqrt(want) / math.Sqrt(trials)
		if math.Abs(mean-want) > tol {
			t.Errorf("%s: mean edges %v, want %v ± %v", k.name, mean, want, tol)
		}
	}
}

func TestGenerateDegreesMatchExpectation(t *testing.T) {
	// Per-class realized average degree must track the matrix's expected
	// degree for that class.
	d := mustDist(t, map[int64]int64{3: 2000, 12: 200, 60: 10})
	m := probgen.Generate(d, 2)
	offsets := d.VertexOffsets(1)
	classSum := make([]float64, d.NumClasses())
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		el, err := Generate(d, m, Options{Workers: 4, Seed: uint64(100 + trial)})
		if err != nil {
			t.Fatal(err)
		}
		deg := el.Degrees(2)
		for c := 0; c < d.NumClasses(); c++ {
			var s int64
			for v := offsets[c]; v < offsets[c+1]; v++ {
				s += deg[v]
			}
			classSum[c] += float64(s) / float64(d.Classes[c].Count)
		}
	}
	resid := probgen.RowResiduals(d, m)
	for c := 0; c < d.NumClasses(); c++ {
		got := classSum[c] / trials
		want := float64(d.Classes[c].Degree) + resid[c] // what the matrix actually encodes
		if math.Abs(got-want) > 0.15*want+0.2 {
			t.Errorf("class %d (degree %d): realized avg degree %v, matrix expectation %v",
				c, d.Classes[c].Degree, got, want)
		}
	}
}

func TestGenerateMatchesBernoulliReference(t *testing.T) {
	// Same distribution: edge frequency per pair must match the coin-flip
	// model across many seeds.
	d := mustDist(t, map[int64]int64{1: 6, 3: 4})
	m := probgen.Generate(d, 1)
	const trials = 3000
	skipCount := map[uint64]int{}
	coinCount := map[uint64]int{}
	for trial := 0; trial < trials; trial++ {
		a, err := Generate(d, m, Options{Workers: 2, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range a.Edges {
			skipCount[e.Key()]++
		}
		b, err := GenerateBernoulliReference(d, m, uint64(trial)+999999)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range b.Edges {
			coinCount[e.Key()]++
		}
	}
	n := int32(d.NumVertices())
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			k := (graph.Edge{U: u, V: v}).Key()
			ps := float64(skipCount[k]) / trials
			pc := float64(coinCount[k]) / trials
			// 6-sigma binomial tolerance on the difference of two
			// independent estimates.
			tol := 6 * math.Sqrt(2*0.25/trials)
			if math.Abs(ps-pc) > tol {
				t.Errorf("pair (%d,%d): skip %v vs coin %v", u, v, ps, pc)
			}
		}
	}
}

func TestGenerateChunkSplitEquivalent(t *testing.T) {
	// Tiny chunk span forces intra-space splitting; the edge *set*
	// distribution must be unaffected (counts near expectation).
	d := mustDist(t, map[int64]int64{4: 1000})
	m := probgen.Generate(d, 1)
	want := probgen.ExpectedEdges(d, m)
	var total float64
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		el, err := Generate(d, m, Options{Workers: 4, Seed: uint64(trial), ChunkSpan: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if rep := el.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("chunked output not simple: %+v", rep)
		}
		total += float64(el.NumEdges())
	}
	mean := total / trials
	tol := 5 * math.Sqrt(want) / math.Sqrt(trials)
	if math.Abs(mean-want) > tol {
		t.Errorf("chunked mean edges %v, want %v ± %v", mean, want, tol)
	}
}

func TestGenerateProbabilityOne(t *testing.T) {
	// P = 1 everywhere must produce the complete graph: 21 edges on 7
	// vertices, or the complete loopless digraph's 42 arcs.
	d := mustDist(t, map[int64]int64{3: 4, 9: 3}) // 7 vertices
	m := probgen.NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 1)
	m.Set(1, 1, 1)
	for _, k := range kinds {
		el, err := k.gen(d, m, Options{Workers: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := 21
		if k.ordered {
			want = 42
		}
		if el.NumEdges() != want {
			t.Errorf("%s: complete graph on 7 vertices: %d edges, want %d", k.name, el.NumEdges(), want)
		}
		if !isSimple(el, k.ordered) {
			t.Errorf("%s: not simple", k.name)
		}
	}
}

func TestGenerateZeroProbability(t *testing.T) {
	d := mustDist(t, map[int64]int64{2: 10})
	m := probgen.NewMatrix(1) // all zero
	el, err := Generate(d, m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if el.NumEdges() != 0 {
		t.Errorf("zero matrix produced %d edges", el.NumEdges())
	}
}

func TestGenerateDimensionMismatch(t *testing.T) {
	d := mustDist(t, map[int64]int64{2: 10})
	m := probgen.NewMatrix(3)
	if _, err := Generate(d, m, Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := GenerateBernoulliReference(d, m, 1); err == nil {
		t.Error("reference: dimension mismatch accepted")
	}
}

func TestGenerateSingletonClasses(t *testing.T) {
	// Classes of one vertex have empty diagonal spaces and must not
	// emit self-loops.
	d := mustDist(t, map[int64]int64{5: 1, 6: 1, 7: 1})
	m := probgen.NewMatrix(3)
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			m.Set(i, j, 1)
		}
	}
	for _, k := range kinds {
		el, err := k.gen(d, m, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		// 3 vertices, all cross pairs = 3 edges (6 arcs), no loops.
		want := 3
		if k.ordered {
			want = 6
		}
		if el.NumEdges() != want {
			t.Errorf("%s: edges = %d, want %d", k.name, el.NumEdges(), want)
		}
		for _, e := range el.Edges {
			if e.IsLoop() {
				t.Errorf("%s: self-loop %v emitted", k.name, e)
			}
		}
	}
}

// TestGenerateRecordsSpaces locks the observability contract of the
// edge-skip phase: one merged record per class pair with prob > 0,
// edge counts matching the actual output, draw counts covering every
// emitted edge, and determinism across worker counts (chunk streams
// are keyed by chunk index, so scheduling cannot move counts between
// spaces).
func TestGenerateRecordsSpaces(t *testing.T) {
	if !obs.Enabled {
		t.Skip("observability compiled out (nullgraph_noobs)")
	}
	d := mustDist(t, map[int64]int64{2: 2000, 7: 300, 40: 20})
	m := probgen.Generate(d, 2)
	collect := func(workers int) (*graph.EdgeList, *obs.EdgeSkipReport) {
		rec := obs.NewRecorder()
		el, err := Generate(d, m, Options{Workers: workers, Seed: 5, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		return el, rec.Report().EdgeSkip
	}
	el, rep := collect(1)
	if rep == nil {
		t.Fatal("no edge-skip section recorded")
	}
	if rep.TotalEdges != int64(el.NumEdges()) {
		t.Errorf("recorded %d edges, generated %d", rep.TotalEdges, el.NumEdges())
	}
	// Every emitted edge consumed at least one draw, plus each space's
	// positioning draw.
	if rep.TotalDraws < rep.TotalEdges {
		t.Errorf("draws %d < edges %d", rep.TotalDraws, rep.TotalEdges)
	}
	seen := map[[2]int]bool{}
	for _, sp := range rep.Spaces {
		key := [2]int{sp.ClassI, sp.ClassJ}
		if seen[key] {
			t.Fatalf("space (%d,%d) recorded twice (chunks not merged)", sp.ClassI, sp.ClassJ)
		}
		seen[key] = true
		if sp.ClassI > sp.ClassJ || sp.Probability <= 0 || sp.Pairs <= 0 {
			t.Errorf("malformed space record %+v", sp)
		}
	}
	_, rep8 := collect(8)
	if !reflect.DeepEqual(rep, rep8) {
		t.Errorf("space accounting differs across worker counts:\n%+v\n%+v", rep, rep8)
	}
}

func BenchmarkGenerate(b *testing.B) {
	d, err := degseq.SamplePowerLaw(degseq.PowerLawConfig{
		NumVertices: 500000, MinDegree: 2, MaxDegree: 5000, Gamma: 2.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := probgen.Generate(d, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el, err := Generate(d, m, Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(el.NumEdges()) * 8)
	}
}
