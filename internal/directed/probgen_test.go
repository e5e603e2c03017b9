package directed

import (
	"math"
	"testing"

	"nullgraph/internal/probgen"
)

// TestRowResidualsNearZero is the row-sum property of the directed
// probability construction: under Bernoulli arc generation from the
// matrix, every class's expected out- and in-degree must equal its
// target degree (residuals ≈ 0).
func TestRowResidualsNearZero(t *testing.T) {
	cases := []struct {
		name string
		d    *JointDistribution
	}{
		{"regular", jointOf(t, JointClass{Out: 2, In: 2, Count: 8})},
		{"two-class", jointOf(t, JointClass{Out: 1, In: 2, Count: 6}, JointClass{Out: 3, In: 1, Count: 3})},
		{"sources-and-sinks", jointOf(t, JointClass{Out: 0, In: 2, Count: 4}, JointClass{Out: 2, In: 0, Count: 4})},
	}
	for _, c := range cases {
		m := GenerateProbabilities(c.d, 1)
		outR, inR := RowResiduals(c.d, m)
		for i := range outR {
			if math.Abs(outR[i]) > 1e-9 || math.Abs(inR[i]) > 1e-9 {
				t.Errorf("%s class %d: residuals out=%g in=%g, want ~0", c.name, i, outR[i], inR[i])
			}
		}
		// The residual identity implies the expected arc total matches.
		if got, want := ExpectedArcs(c.d, m), float64(c.d.NumArcs()); math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: expected arcs %g, want %g", c.name, got, want)
		}
	}
}

// TestRowResidualsBoundedOnSkewedJoint: the attachment heuristic is
// approximate on skewed sequences (bounded refinement sweeps), but its
// degree error must stay within a few percent — far tighter than the
// Chung-Lu baseline it replaces.
func TestRowResidualsBoundedOnSkewedJoint(t *testing.T) {
	d := jointOf(t,
		JointClass{Out: 1, In: 1, Count: 20},
		JointClass{Out: 2, In: 3, Count: 6},
		JointClass{Out: 9, In: 6, Count: 2})
	m := GenerateProbabilities(d, 1)
	outR, inR := RowResiduals(d, m)
	for i, cls := range d.Classes {
		// Per-vertex relative error against the class's own degrees.
		if cls.Out > 0 {
			if rel := math.Abs(outR[i]) / (float64(cls.Out) * float64(cls.Count)); rel > 0.05 {
				t.Errorf("class %d: out residual %g is %.1f%% of target", i, outR[i], 100*rel)
			}
		}
		if cls.In > 0 {
			if rel := math.Abs(inR[i]) / (float64(cls.In) * float64(cls.Count)); rel > 0.05 {
				t.Errorf("class %d: in residual %g is %.1f%% of target", i, inR[i], 100*rel)
			}
		}
	}
	if got, want := ExpectedArcs(d, m), float64(d.NumArcs()); math.Abs(got-want)/want > 0.02 {
		t.Errorf("expected arcs %g, want within 2%% of %g", got, want)
	}
}

// TestRowResidualsDetectMismatch: the residuals must flag a matrix that
// does NOT reproduce the target degrees (the ablation direction).
func TestRowResidualsDetectMismatch(t *testing.T) {
	d := jointOf(t, JointClass{Out: 1, In: 2, Count: 6}, JointClass{Out: 3, In: 1, Count: 3})
	m := ChungLuProbabilities(d)
	outR, inR := RowResiduals(d, m)
	var worst float64
	for i := range outR {
		worst = math.Max(worst, math.Max(math.Abs(outR[i]), math.Abs(inR[i])))
	}
	if worst < 1e-3 {
		t.Errorf("Chung-Lu residuals all ~0 (worst %g); expected visible degree error on a skewed joint", worst)
	}
}

// TestGenerateProbabilitiesWorkerInvariance: the matrix must be
// identical for any worker count.
func TestGenerateProbabilitiesWorkerInvariance(t *testing.T) {
	d := jointOf(t,
		JointClass{Out: 1, In: 1, Count: 12},
		JointClass{Out: 4, In: 2, Count: 4},
		JointClass{Out: 2, In: 5, Count: 3})
	a := GenerateProbabilities(d, 1)
	b := GenerateProbabilities(d, 4)
	k := d.NumClasses()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("P[%d][%d] differs across worker counts: %v vs %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// TestProbMatrixClamp: the directed heuristic's matrix is asymmetric, so
// clamping must bound each ordered entry on its own.
func TestProbMatrixClamp(t *testing.T) {
	m := probgen.NewMatrix(2)
	m.SetOrdered(0, 0, -0.5)
	m.SetOrdered(0, 1, 1.7)
	m.SetOrdered(1, 0, 0.3)
	m.SetOrdered(1, 1, 1.0)
	m.Clamp()
	if m.At(0, 0) != 0 || m.At(0, 1) != 1 || m.At(1, 0) != 0.3 || m.At(1, 1) != 1 {
		t.Errorf("clamp wrong: %v %v %v %v", m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
	}
}
