package directed

import (
	"math"
	"testing"
	"testing/quick"

	"nullgraph/internal/rng"
	"nullgraph/internal/swap"
)

// cycleDigraph returns a directed n-cycle: simple, 1-regular in and out.
func cycleDigraph(n int) *ArcList {
	arcs := make([]Arc, n)
	for i := 0; i < n; i++ {
		arcs[i] = Arc{From: int32(i), To: int32((i + 1) % n)}
	}
	return NewArcList(arcs, n)
}

// randomJoint builds a realizable joint distribution by generating a
// random simple digraph and reading its degrees back.
func randomJoint(t testing.TB, n int, arcsPerVertex int, seed uint64) *JointDistribution {
	t.Helper()
	src := rng.New(seed)
	seen := map[uint64]struct{}{}
	var arcs []Arc
	for len(arcs) < n*arcsPerVertex {
		a := Arc{From: int32(src.Intn(n)), To: int32(src.Intn(n))}
		if a.IsLoop() {
			continue
		}
		if _, dup := seen[a.Key()]; dup {
			continue
		}
		seen[a.Key()] = struct{}{}
		arcs = append(arcs, a)
	}
	return OfArcList(NewArcList(arcs, n), 1)
}

func TestKleitmanWangRealizesExactly(t *testing.T) {
	cases := []*JointDistribution{
		FromJointDegrees([]int64{1, 0}, []int64{0, 1}),
		FromJointDegrees([]int64{1, 1, 1}, []int64{1, 1, 1}),
		FromJointDegrees([]int64{2, 2, 2}, []int64{2, 2, 2}),
		FromJointDegrees([]int64{2, 1, 0}, []int64{0, 1, 2}),
		randomJoint(t, 200, 5, 7),
	}
	for i, d := range cases {
		al, err := KleitmanWang(d)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if rep := al.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("case %d: not simple: %+v", i, rep)
		}
		got := OfArcList(al, 1)
		if len(got.Classes) != len(d.Classes) {
			t.Fatalf("case %d: class count %d vs %d", i, len(got.Classes), len(d.Classes))
		}
		for c := range d.Classes {
			if got.Classes[c] != d.Classes[c] {
				t.Fatalf("case %d class %d: %+v vs %+v", i, c, got.Classes[c], d.Classes[c])
			}
		}
	}
}

func TestKleitmanWangRejectsNonRealizable(t *testing.T) {
	bad := []*JointDistribution{
		FromJointDegrees([]int64{2, 0}, []int64{0, 2}),
		FromJointDegrees([]int64{1, 0}, []int64{1, 0}),
		FromJointDegrees([]int64{2, 0}, []int64{0, 1}),
	}
	for i, d := range bad {
		if _, err := KleitmanWang(d); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestKleitmanWangMatchesIsRealizableProperty(t *testing.T) {
	f := func(rawOut, rawIn []uint8) bool {
		n := len(rawOut)
		if n == 0 || n > 10 {
			return true
		}
		if len(rawIn) < n {
			return true
		}
		out := make([]int64, n)
		in := make([]int64, n)
		var so, si int64
		for i := 0; i < n; i++ {
			out[i] = int64(rawOut[i]) % int64(n)
			in[i] = int64(rawIn[i]) % int64(n)
			so += out[i]
			si += in[i]
		}
		if so != si {
			return true // construction requires balance; skip
		}
		d := FromJointDegrees(out, in)
		_, err := KleitmanWang(d)
		return (err == nil) == d.IsRealizable()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestSwapArcsPreservesInvariants(t *testing.T) {
	for _, workers := range []int{1, 4} {
		al := cycleDigraph(500)
		outBefore, inBefore := al.Degrees(1)
		res := SwapArcs(al, SwapOptions{Iterations: 8, Workers: workers, Seed: 5})
		outAfter, inAfter := al.Degrees(1)
		for v := range outBefore {
			if outBefore[v] != outAfter[v] || inBefore[v] != inAfter[v] {
				t.Fatalf("workers=%d: degrees changed at %d", workers, v)
			}
		}
		if rep := al.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("workers=%d: not simple: %+v", workers, rep)
		}
		if res.TotalSuccesses == 0 {
			t.Errorf("workers=%d: no swaps on a 500-cycle", workers)
		}
	}
}

func TestSwapArcsChangesGraph(t *testing.T) {
	al := cycleDigraph(1000)
	orig := al.Clone()
	SwapArcs(al, SwapOptions{Iterations: 5, Workers: 4, Seed: 3})
	if al.EqualAsSets(orig) {
		t.Error("digraph unchanged after swapping")
	}
}

func TestSwapArcsDeterministicSingleWorker(t *testing.T) {
	a, b := cycleDigraph(800), cycleDigraph(800)
	SwapArcs(a, SwapOptions{Iterations: 4, Workers: 1, Seed: 9})
	SwapArcs(b, SwapOptions{Iterations: 4, Workers: 1, Seed: 9})
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			t.Fatalf("same (seed, workers=1) diverged at %d", i)
		}
	}
}

func TestSwapArcsUntilMixed(t *testing.T) {
	al := cycleDigraph(256)
	res, mixed := NewSwapEngine(al, SwapOptions{Workers: 2, Seed: 11, TrackSwapped: true}).Run(200, swap.UntilMixed{})
	if !mixed {
		t.Fatalf("did not mix in %d iterations", len(res.PerIteration))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("swap.UntilMixed without TrackSwapped did not panic")
			}
		}()
		NewSwapEngine(cycleDigraph(16), SwapOptions{Workers: 1}).Run(1, swap.UntilMixed{})
	}()
}

func TestSwapArcsSimplifiesMultiArcs(t *testing.T) {
	var arcs []Arc
	for i := 0; i < 30; i++ {
		arcs = append(arcs, Arc{From: 0, To: 1})
	}
	for i := int32(2); i < 200; i += 2 {
		arcs = append(arcs, Arc{From: i, To: i + 1})
	}
	al := NewArcList(arcs, 200)
	SwapArcs(al, SwapOptions{Iterations: 60, Workers: 4, Seed: 1})
	if rep := al.CheckSimplicity(); !rep.IsSimple() {
		t.Errorf("multi-arcs survive after 60 iterations: %+v", rep)
	}
}

func TestGenerateProbabilitiesRegular(t *testing.T) {
	// 1000 vertices, out=in=5 for all: exact solution expected.
	out := make([]int64, 1000)
	in := make([]int64, 1000)
	for i := range out {
		out[i], in[i] = 5, 5
	}
	d := FromJointDegrees(out, in)
	m := GenerateProbabilities(d, 2)
	or, ir := RowResiduals(d, m)
	if math.Abs(or[0]) > 1e-6 || math.Abs(ir[0]) > 1e-6 {
		t.Errorf("regular residuals = %v / %v", or[0], ir[0])
	}
	if exp := ExpectedArcs(d, m); math.Abs(exp-5000) > 1e-6 {
		t.Errorf("ExpectedArcs = %v, want 5000", exp)
	}
}

func TestGenerateProbabilitiesBipartiteExact(t *testing.T) {
	// Sources and sinks: 100 vertices out=3/in=0, 100 vertices out=0/in=3.
	out := make([]int64, 200)
	in := make([]int64, 200)
	for i := 0; i < 100; i++ {
		out[i] = 3
		in[100+i] = 3
	}
	d := FromJointDegrees(out, in)
	m := GenerateProbabilities(d, 1)
	or, ir := RowResiduals(d, m)
	for c := range or {
		if math.Abs(or[c]) > 1e-6 || math.Abs(ir[c]) > 1e-6 {
			t.Errorf("class %d residuals %v / %v", c, or[c], ir[c])
		}
	}
}

func TestGenerateProbabilitiesSkewed(t *testing.T) {
	d := randomJoint(t, 2000, 4, 3)
	m := GenerateProbabilities(d, 4)
	for i := 0; i < m.Dim(); i++ {
		for j := 0; j < m.Dim(); j++ {
			if v := m.At(i, j); v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("P(%d,%d) = %v", i, j, v)
			}
		}
	}
	exp := ExpectedArcs(d, m)
	target := float64(d.NumArcs())
	if math.Abs(exp-target) > 0.05*target {
		t.Errorf("expected arcs %v vs target %v", exp, target)
	}
}

func TestChungLuProbabilitiesDirected(t *testing.T) {
	d := FromJointDegrees([]int64{1, 1}, []int64{1, 1})
	m := ChungLuProbabilities(d) // single class (1,1), arcs=2
	if got := m.At(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P = %v, want 0.5", got)
	}
}

func TestSwapUniformityDirectedMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// 3 vertices each out=in=1: exactly two simple digraphs exist — the
	// two directed 3-cycles. Long swap runs must visit both equally.
	counts := map[uint64]int{}
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		al := cycleDigraph(3)
		SwapArcs(al, SwapOptions{Iterations: 20, Workers: 1, Seed: rng.Mix64(uint64(trial) + 1)})
		var sig uint64
		for _, a := range al.Arcs {
			sig ^= rng.Mix64(a.Key())
		}
		counts[sig]++
	}
	if len(counts) != 2 {
		t.Fatalf("reached %d states, want 2", len(counts))
	}
	for sig, c := range counts {
		want := float64(trials) / 2
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want/2) {
			t.Errorf("state %x: %d of %d", sig, c, trials)
		}
	}
}

func BenchmarkDirectedSwapIteration(b *testing.B) {
	al := cycleDigraph(1 << 17)
	eng := NewSwapEngine(al, SwapOptions{Workers: 0, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.SetBytes(int64(al.NumArcs()) * 8)
}
