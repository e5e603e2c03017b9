package datasets

import (
	"math"
	"testing"
)

func TestTable1Complete(t *testing.T) {
	specs := Table1()
	if len(specs) != 8 {
		t.Fatalf("Table1 has %d entries, want 8", len(specs))
	}
	names := map[string]bool{}
	skewed := 0
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate dataset %q", s.Name)
		}
		names[s.Name] = true
		if s.FullN <= 0 || s.FullM <= 0 || s.FullDMax <= 0 {
			t.Errorf("%s: non-positive published stats %+v", s.Name, s)
		}
		if s.Skewed {
			skewed++
		}
	}
	if skewed != 4 {
		t.Errorf("%d skewed instances, want 4 (the paper's quality set)", skewed)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("as20")
	if err != nil || s.Name != "as20" {
		t.Errorf("ByName(as20) = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestLoadSmallInstancesFullSize(t *testing.T) {
	// Meso and as20 are below the default cap and load at full n.
	for _, name := range []string{"Meso", "as20"} {
		s, _ := ByName(name)
		d, err := Load(s, LoadOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.NumVertices() != s.FullN {
			t.Errorf("%s: vertices = %d, want %d", name, d.NumVertices(), s.FullN)
		}
		// Average degree within 15% of published.
		got := 2 * float64(d.NumEdges()) / float64(d.NumVertices())
		want := s.AvgDegree()
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("%s: avg degree %v, want ~%v", name, got, want)
		}
		// Max degree near the published cutoff.
		if d.MaxDegree() < s.FullDMax*8/10 {
			t.Errorf("%s: dmax = %d, want near %d", name, d.MaxDegree(), s.FullDMax)
		}
		if !d.IsGraphical() {
			t.Errorf("%s: not graphical", name)
		}
	}
}

func TestLoadLargeInstancesScaled(t *testing.T) {
	s, _ := ByName("Friendster")
	d, err := Load(s, LoadOptions{MaxVertices: 50_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumVertices() != 50_000 {
		t.Errorf("vertices = %d, want 50000", d.NumVertices())
	}
	got := 2 * float64(d.NumEdges()) / float64(d.NumVertices())
	want := s.AvgDegree()
	if math.Abs(got-want) > 0.2*want {
		t.Errorf("avg degree %v, want ~%v (skew preserved under scaling)", got, want)
	}
}

func TestLoadAll(t *testing.T) {
	all, err := LoadAll(LoadOptions{MaxVertices: 20_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("LoadAll returned %d instances", len(all))
	}
	for name, d := range all {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !d.IsGraphical() {
			t.Errorf("%s: not graphical", name)
		}
	}
}

func TestLoadAllSmallAnalogs(t *testing.T) {
	// At 400 vertices the dense analogs' degree cutoff is floored far
	// above what n supports, so the graphicality repair needs thousands
	// of steps; every analog must still build (`experiments -exp table1
	// -max-vertices 400`, whose default seed is 1).
	all, err := LoadAll(LoadOptions{MaxVertices: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Table1() {
		d := all[s.Name]
		if d.NumVertices() != 400 {
			t.Errorf("%s: %d vertices, want 400", s.Name, d.NumVertices())
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if !d.IsGraphical() {
			t.Errorf("%s: not graphical", s.Name)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	s, _ := ByName("WikiTalk")
	a, err := Load(s, LoadOptions{MaxVertices: 10_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(s, LoadOptions{MaxVertices: 10_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Classes) != len(b.Classes) {
		t.Fatal("same seed, different class structure")
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDatasetsDistinct(t *testing.T) {
	// Different datasets must not collapse to the same distribution
	// (the per-name seed salt).
	all, err := LoadAll(LoadOptions{MaxVertices: 10_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lj, fr := all["LiveJournal"], all["Friendster"]
	if lj.NumEdges() == fr.NumEdges() && lj.NumClasses() == fr.NumClasses() {
		t.Error("LiveJournal and Friendster analogs look identical")
	}
}

func TestCalibrateGamma(t *testing.T) {
	g, err := calibrateGamma(1, 1000, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := truncatedPowerLawMean(1, 1000, g); math.Abs(got-4.0) > 0.01 {
		t.Errorf("calibrated mean %v, want 4.0", got)
	}
	// Unreachable average errors out.
	if _, err := calibrateGamma(1, 10, 9.9); err == nil {
		t.Error("impossible average accepted")
	}
	// Very light target clamps to steepest exponent.
	g, err = calibrateGamma(2, 1000, 1.9)
	if err != nil {
		t.Fatal(err)
	}
	if g != 6.0 {
		t.Errorf("light-tail clamp gamma = %v, want 6.0", g)
	}
}
