package core

import (
	"runtime"
	"testing"

	"nullgraph/internal/directed"
)

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestEngineDirectedReuse locks the directed session contract at
// Workers=1: sample 0 of a session equals a single-use engine's run (the
// one-shot GenerateDirected), and a second sample on the same session
// allocates at most 10% of the bytes the first one did.
func TestEngineDirectedReuse(t *testing.T) {
	d := &directed.JointDistribution{Classes: []directed.JointClass{
		{Out: 1, In: 3, Count: 2000},
		{Out: 2, In: 2, Count: 2000},
		{Out: 3, In: 1, Count: 2000},
	}}
	opt := Options{Workers: 1, Seed: 9, SwapIterations: 3}
	eng := NewEngine(opt)
	defer eng.Close()

	before := allocated()
	first, err := eng.GenerateDirectedSample(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	firstBytes := allocated() - before
	got := cloneEdges(first.Graph)

	one := NewEngine(opt)
	want, err := one.GenerateDirectedSample(d, 0, nil)
	one.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Graph.Edges) {
		t.Fatalf("session drew %d arcs, one-shot %d", len(got), len(want.Graph.Edges))
	}
	for i := range got {
		if got[i] != want.Graph.Edges[i] {
			t.Fatalf("session sample 0 diverges from the one-shot run at arc %d", i)
		}
	}

	before = allocated()
	if _, err := eng.GenerateDirectedSample(d, 1, nil); err != nil {
		t.Fatal(err)
	}
	reuseBytes := allocated() - before
	if ratio := float64(reuseBytes) / float64(firstBytes); ratio > 0.10 {
		t.Errorf("second sample allocated %d bytes, %.3f of the first sample's %d (want <= 0.10)", reuseBytes, ratio, firstBytes)
	} else {
		t.Logf("first sample %d bytes, second %d (ratio %.4f)", firstBytes, reuseBytes, ratio)
	}
}
