package probgen

import (
	"math"
	"testing"
	"testing/quick"

	"nullgraph/internal/degseq"
)

func mustDist(t *testing.T, counts map[int64]int64) *degseq.Distribution {
	t.Helper()
	d, err := degseq.FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.Dim() != 3 {
		t.Fatalf("Dim = %d", m.Dim())
	}
	m.Set(0, 2, 0.5)
	if m.At(0, 2) != 0.5 || m.At(2, 0) != 0.5 {
		t.Error("Set is not symmetric")
	}
	c := m.Clone()
	c.Set(0, 2, 0.9)
	if m.At(0, 2) != 0.5 {
		t.Error("Clone shares storage")
	}
}

func TestMatrixClamp(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, -0.5)
	m.Set(0, 1, 1.5)
	m.SetOrdered(1, 0, 0.3) // a directed entry: P(1→0) != P(0→1)
	m.Set(1, 1, 0.3)
	m.Clamp()
	if m.At(0, 0) != 0 || m.At(0, 1) != 1 || m.At(1, 0) != 0.3 || m.At(1, 1) != 0.3 {
		t.Errorf("Clamp wrong: %v %v %v %v", m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
	}
}

func TestL1Distance(t *testing.T) {
	a, b := NewMatrix(2), NewMatrix(2)
	a.Set(0, 1, 0.5)
	b.Set(0, 1, 0.25)
	b.Set(1, 1, 0.1)
	// |0.5-0.25| appears twice (symmetric storage) plus |0-0.1| once.
	want := 2*0.25 + 0.1
	if got := L1Distance(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("L1Distance = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	L1Distance(a, NewMatrix(3))
}

func TestGenerateRegular(t *testing.T) {
	// A d-regular distribution must be solved exactly.
	d := mustDist(t, map[int64]int64{10: 1000})
	m := Generate(d, 2)
	resid := RowResiduals(d, m)
	if math.Abs(resid[0]) > 1e-6 {
		t.Errorf("regular residual = %v, want 0", resid[0])
	}
	exp := ExpectedEdges(d, m)
	if math.Abs(exp-5000) > 1e-6 {
		t.Errorf("ExpectedEdges = %v, want 5000", exp)
	}
}

func TestGenerateTwoClassExact(t *testing.T) {
	d := mustDist(t, map[int64]int64{3: 300, 50: 18})
	m := Generate(d, 1)
	for j, r := range RowResiduals(d, m) {
		if math.Abs(r) > 1e-6 {
			t.Errorf("class %d residual = %v", j, r)
		}
	}
}

func TestGenerateProperties(t *testing.T) {
	d, err := degseq.SamplePowerLaw(degseq.PowerLawConfig{
		NumVertices: 5000, MinDegree: 1, MaxDegree: 300, Gamma: 2.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := Generate(d, 4)
	k := d.NumClasses()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := m.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("P(%d,%d) = %v out of [0,1]", i, j, v)
			}
			if m.At(j, i) != v {
				t.Fatalf("P not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGenerateExpectedEdgesCloseToTarget(t *testing.T) {
	cases := []struct {
		name string
		cfg  degseq.PowerLawConfig
		tol  float64 // relative tolerance on expected edge count
	}{
		{"skewed-small", degseq.PowerLawConfig{NumVertices: 2000, MinDegree: 1, MaxDegree: 400, Gamma: 1.9, Seed: 1}, 0.06},
		{"as20-like", degseq.PowerLawConfig{NumVertices: 6500, MinDegree: 1, MaxDegree: 1500, Gamma: 2.1, Seed: 2}, 0.04},
		{"medium", degseq.PowerLawConfig{NumVertices: 50000, MinDegree: 2, MaxDegree: 2000, Gamma: 2.3, Seed: 3}, 0.01},
	}
	for _, c := range cases {
		d, err := degseq.SamplePowerLaw(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := Generate(d, 4)
		exp := ExpectedEdges(d, m)
		target := float64(d.NumEdges())
		if rel := math.Abs(exp-target) / target; rel > c.tol {
			t.Errorf("%s: expected edges %v vs target %v (rel %v > %v)", c.name, exp, target, rel, c.tol)
		}
	}
}

func TestGenerateBeatsChungLuOnResiduals(t *testing.T) {
	// The point of the heuristic: its residuals must be much smaller
	// than naive Chung-Lu's on a skewed distribution.
	d, err := degseq.SamplePowerLaw(degseq.PowerLawConfig{
		NumVertices: 6500, MinDegree: 1, MaxDegree: 1500, Gamma: 2.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ours := Generate(d, 4)
	cl := ChungLu(d)
	sumAbs := func(rs []float64) float64 {
		var s float64
		for _, r := range rs {
			s += math.Abs(r)
		}
		return s
	}
	oursErr := sumAbs(RowResiduals(d, ours))
	clErr := sumAbs(RowResiduals(d, cl))
	if oursErr >= clErr/2 {
		t.Errorf("heuristic residual %v not clearly better than Chung-Lu %v", oursErr, clErr)
	}
}

func TestGenerateEmptyAndDegenerate(t *testing.T) {
	empty := &degseq.Distribution{}
	m := Generate(empty, 2)
	if m.Dim() != 0 {
		t.Errorf("empty Dim = %d", m.Dim())
	}
	// All-zero-degree distribution: nothing to attach.
	zero := mustDist(t, map[int64]int64{0: 10})
	m = Generate(zero, 2)
	if m.At(0, 0) != 0 {
		t.Errorf("zero-degree class got probability %v", m.At(0, 0))
	}
	// Single vertex with positive degree: infeasible, but must not hang
	// or produce out-of-range values.
	lonely := mustDist(t, map[int64]int64{2: 1})
	m = Generate(lonely, 1)
	if v := m.At(0, 0); v < 0 || v > 1 {
		t.Errorf("lonely P = %v", v)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d := mustDist(t, map[int64]int64{1: 50, 2: 30, 7: 5, 20: 1})
	a, b := Generate(d, 1), Generate(d, 4)
	if L1Distance(a, b) != 0 {
		t.Error("worker count changed the probability matrix")
	}
}

func TestChungLuKnownValues(t *testing.T) {
	// degrees: 2x d=1, 1x d=2 → 2m = 4.
	d := mustDist(t, map[int64]int64{1: 2, 2: 1})
	m := ChungLu(d)
	if got := m.At(0, 0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("P(1,1) = %v, want 0.25", got)
	}
	if got := m.At(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(1,2) = %v, want 0.5", got)
	}
	if got := m.At(1, 1); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("P(2,2) = %v, want 1", got)
	}
}

func TestChungLuClamps(t *testing.T) {
	// w_i*w_j > 2m ⇒ clamp to 1, the failure the paper's Figure 1 shows.
	d := mustDist(t, map[int64]int64{1: 10, 100: 2})
	m := ChungLu(d)
	k := d.NumClasses()
	if got := m.At(k-1, k-1); got != 1 {
		t.Errorf("P(100,100) = %v, want clamped 1", got)
	}
}

func TestRowResidualsChungLuRegular(t *testing.T) {
	// For a d-regular graph Chung-Lu is exact up to the self-pair term.
	d := mustDist(t, map[int64]int64{4: 100}) // P = 16/400 = 0.04
	m := ChungLu(d)
	r := RowResiduals(d, m)[0]
	// Expected degree = 100*0.04 - 0.04 = 3.96 → residual -0.04.
	if math.Abs(r+0.04) > 1e-9 {
		t.Errorf("residual = %v, want -0.04", r)
	}
}

func TestGenerateQuickProperty(t *testing.T) {
	f := func(seed uint16) bool {
		d, err := degseq.SamplePowerLaw(degseq.PowerLawConfig{
			NumVertices: 500, MinDegree: 1, MaxDegree: 50, Gamma: 2.0, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		m := Generate(d, 2)
		for i := 0; i < m.Dim(); i++ {
			for j := 0; j < m.Dim(); j++ {
				if v := m.At(i, j); v < 0 || v > 1 || math.IsNaN(v) {
					return false
				}
			}
		}
		exp := ExpectedEdges(d, m)
		target := float64(d.NumEdges())
		return exp > 0.8*target && exp < 1.2*target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	d, err := degseq.SamplePowerLaw(degseq.PowerLawConfig{
		NumVertices: 200000, MinDegree: 1, MaxDegree: 10000, Gamma: 2.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(d, 0)
	}
}
