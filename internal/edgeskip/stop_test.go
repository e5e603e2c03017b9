package edgeskip

import (
	"errors"
	"testing"

	"nullgraph/internal/par"
	"nullgraph/internal/probgen"
)

// TestGenerateStopPreTripped: a tripped flag makes Generate bail with
// par.ErrStopped and no graph, for either space kind.
func TestGenerateStopPreTripped(t *testing.T) {
	dist := mustDist(t, map[int64]int64{2: 200, 3: 100})
	m := probgen.Generate(dist, 1)
	stop := &par.Stop{}
	stop.Set()
	for _, k := range kinds {
		el, err := k.gen(dist, m, Options{Workers: 2, Seed: 1, Stop: stop})
		if !errors.Is(err, par.ErrStopped) {
			t.Fatalf("%s: got err %v, want par.ErrStopped", k.name, err)
		}
		if el != nil {
			t.Fatalf("%s: stopped Generate returned a graph", k.name)
		}
	}
}

// TestGenerateStopUntrippedBitIdentical: attaching a Stop that never
// trips must not change the output — polling consumes no randomness.
func TestGenerateStopUntrippedBitIdentical(t *testing.T) {
	dist := mustDist(t, map[int64]int64{2: 400, 5: 100, 9: 20})
	m := probgen.Generate(dist, 1)
	for _, k := range kinds {
		plain, err := k.gen(dist, m, Options{Workers: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		watched, err := k.gen(dist, m, Options{Workers: 1, Seed: 7, Stop: &par.Stop{}})
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Edges) != len(watched.Edges) {
			t.Fatalf("%s: edge counts differ: %d vs %d", k.name, len(plain.Edges), len(watched.Edges))
		}
		for i := range plain.Edges {
			if plain.Edges[i] != watched.Edges[i] {
				t.Fatalf("%s: stop polling changed the output at edge %d", k.name, i)
			}
		}
	}
}

// TestGeneratorReuseAfterStop: an aborted Generate must leave the
// Generator reusable, and the retry bit-identical to a clean run.
func TestGeneratorReuseAfterStop(t *testing.T) {
	dist := mustDist(t, map[int64]int64{2: 400, 5: 100})
	m := probgen.Generate(dist, 1)
	g := NewGenerator(Options{Workers: 1})
	stop := &par.Stop{}
	stop.Set()
	if _, err := g.Generate(dist, m, 3, stop); !errors.Is(err, par.ErrStopped) {
		t.Fatalf("got err %v, want par.ErrStopped", err)
	}
	got, err := g.Generate(dist, m, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(dist, m, Options{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("retry drew %d edges, clean run drew %d", len(got.Edges), len(want.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("retry diverges from clean run at edge %d", i)
		}
	}
}
