package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"nullgraph"
	"nullgraph/internal/serve"
)

func TestSameSeedSameInputs(t *testing.T) {
	encode := func(seed uint64) []byte {
		var buf bytes.Buffer
		dist, err := skewedDistribution(seed, 1, 5000, 200, skewedGamma)
		if err != nil {
			t.Fatal(err)
		}
		if err := nullgraph.WriteDistribution(&buf, dist); err != nil {
			t.Fatal(err)
		}
		if err := nullgraph.WriteDigraph(&buf, skewedDigraph(seed, 5000, 9000, 200, skewedGamma)); err != nil {
			t.Fatal(err)
		}
		if err := nullgraph.WriteGraph(&buf, sparseConnectedGraph(seed, 300, 600)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			req, err := newServeRequest(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(req.body)
		}
		return buf.Bytes()
	}
	a, b := encode(11), encode(11)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed built different inputs")
	}
	if bytes.Equal(a, encode(12)) {
		t.Fatal("different seeds built identical inputs")
	}
}

func TestCorruptedSampleCountsAsFailed(t *testing.T) {
	dist, err := skewedDistribution(3, 1, 3000, 100, skewedGamma)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nullgraph.Generate(dist, nullgraph.Options{Workers: 1, Seed: 3, SwapIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var chk checker
	var tl tally
	if !tl.record(chk.generated(res.Graph, dist)) {
		t.Fatalf("valid sample rejected: %v", tl.firstErr)
	}
	// One duplicate edge: overwrite an edge with a copy of another.
	res.Graph.Edges[1] = res.Graph.Edges[0]
	if tl.record(chk.generated(res.Graph, dist)) {
		t.Fatal("a sample with a duplicate edge passed verification")
	}
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("tally = %d attempted, %d failed; want 2, 1", tl.attempted, tl.failed)
	}

	// The shuffle checks catch their own corruptions too.
	g := sparseConnectedGraph(5, 200, 300)
	want := slices.Clone(chk.degrees(g.Edges, g.NumVertices))
	if err := chk.shuffled(g, want, true); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	// Move one endpoint of an edge: two vertices change degree.
	e := g.Edges[0]
	for v := int32(0); v < int32(g.NumVertices); v++ {
		if v != e.U && v != e.V {
			g.Edges[0].V = v
			break
		}
	}
	if chk.shuffled(g, want, true) == nil {
		t.Fatal("a degree change passed verification")
	}
	dg := skewedDigraph(5, 500, 900, 50, skewedGamma)
	out, in := chk.arcDegrees(dg.Arcs, dg.NumVertices)
	wantOut, wantIn := slices.Clone(out), slices.Clone(in)
	dg.Arcs[1] = dg.Arcs[0]
	if chk.directedShuffled(dg, wantOut, wantIn) == nil {
		t.Fatal("a digraph with a repeated arc passed verification")
	}
}

func TestConnectedCheckFindsDisconnection(t *testing.T) {
	var chk checker
	// Two triangles, no edge between them.
	edges := []nullgraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}}
	if chk.connected(edges, 6) == nil {
		t.Fatal("two components passed the connectivity check")
	}
	if err := chk.connected(append(edges, nullgraph.Edge{U: 2, V: 3}), 6); err != nil {
		t.Fatalf("connected graph rejected: %v", err)
	}
}

func TestServeChurnNeverReusesFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("serves real requests")
	}
	sc := &serveChurn{cfg: config{seed: 7, nproc: 2}}
	reqs, err := sc.requests(6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	opt := nullgraph.Options{Workers: 1, Seed: 7, SwapIterations: skewedSwaps}
	for _, r := range reqs {
		fp := serve.Fingerprint(r.dist, opt)
		if seen[fp] {
			t.Fatal("two serve-churn requests share a fingerprint")
		}
		seen[fp] = true
	}
	var s series
	// batch scrapes the pool's key count and fails the batch unless it
	// equals the requests served.
	if err := sc.batch(reqs, 2, &s); err != nil {
		t.Fatal(err)
	}
	if sc.t.failed != 0 || s.ok != len(reqs) {
		t.Fatalf("%d of %d requests verified, %d failures (first: %v)", s.ok, len(reqs), sc.t.failed, sc.t.firstErr)
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric names live in.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	e2e, err := endToEnd(&series{}, &series{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2e) != len(bf.EndToEnd) {
		t.Errorf("untraced runs report %d metrics, BENCHMARK.json lists %d", len(e2e), len(bf.EndToEnd))
	}
	for _, m := range bf.EndToEnd {
		if !valid.MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayerMetrics) != len(bf.PerLayer) {
		t.Errorf("traced runs report %d metrics, BENCHMARK.json lists %d", len(perLayerMetrics), len(bf.PerLayer))
	}
	for i, m := range perLayerMetrics {
		if !valid.MatchString(m.name) {
			t.Errorf("bad metric name %q", m.name)
		}
		if i < len(bf.PerLayer) && (bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit) {
			t.Errorf("per-layer metric %d: code has %s (%s), BENCHMARK.json %s (%s)", i, m.name, m.unit, bf.PerLayer[i].Name, bf.PerLayer[i].Unit)
		}
	}
}
