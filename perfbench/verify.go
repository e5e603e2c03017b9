package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"nullgraph"
)

// edgesTolerance bounds |realized − target| / target edges for a
// generated sample; the model matches the target in expectation, and
// at these sizes the realized count lands well within 2%.
const edgesTolerance = 0.05

// tally counts operations attempted and failed; every sample or
// response the benchmark produces goes through record.
type tally struct {
	attempted, failed int
	firstErr          error
}

// record counts one operation, failed when err is non-nil, and reports
// whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return false
	}
	return true
}

// checker holds reusable verification scratch, so verifying a sample
// does not allocate in steady state.
type checker struct {
	keys  []uint64
	keys2 []uint64
	deg   []int64
	deg2  []int64
	off   []int32
	nbr   []int32
	queue []int32
	seen  []bool
}

// simple checks that every edge has in-range distinct endpoints and no
// edge repeats.
func (c *checker) simple(edges []nullgraph.Edge, n int) error {
	c.keys = c.keys[:0]
	for i, e := range edges {
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			return fmt.Errorf("edge %d %v out of range for %d vertices", i, e, n)
		}
		if e.IsLoop() {
			return fmt.Errorf("edge %d %v is a self-loop", i, e)
		}
		c.keys = append(c.keys, e.Canonical().Key())
	}
	slices.Sort(c.keys)
	for i := 1; i < len(c.keys); i++ {
		if c.keys[i] == c.keys[i-1] {
			return fmt.Errorf("duplicate edge %v", nullgraph.Edge{U: int32(c.keys[i] >> 32), V: int32(uint32(c.keys[i]))})
		}
	}
	return nil
}

// degrees returns the degree of every vertex (scratch-backed: valid
// until the next call).
func (c *checker) degrees(edges []nullgraph.Edge, n int) []int64 {
	c.deg = slices.Grow(c.deg[:0], n)[:n]
	clear(c.deg)
	for _, e := range edges {
		c.deg[e.U]++
		c.deg[e.V]++
	}
	return c.deg
}

// sameDegrees checks that edges realize exactly the degree sequence
// want.
func (c *checker) sameDegrees(edges []nullgraph.Edge, want []int64) error {
	got := c.degrees(edges, len(want))
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d has degree %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// connected checks connectivity with a breadth-first search of its
// own, independent of the program's connectivity checker.
func (c *checker) connected(edges []nullgraph.Edge, n int) error {
	if n == 0 {
		return nil
	}
	deg := c.degrees(edges, n)
	c.off = slices.Grow(c.off[:0], n+1)[:n+1]
	c.off[0] = 0
	for v := 0; v < n; v++ {
		c.off[v+1] = c.off[v] + int32(deg[v])
	}
	c.nbr = slices.Grow(c.nbr[:0], 2*len(edges))[:2*len(edges)]
	fill := slices.Grow(c.queue[:0], n)[:n]
	copy(fill, c.off[:n])
	for _, e := range edges {
		c.nbr[fill[e.U]] = e.V
		fill[e.U]++
		c.nbr[fill[e.V]] = e.U
		fill[e.V]++
	}
	c.seen = slices.Grow(c.seen[:0], n)[:n]
	clear(c.seen)
	queue := fill[:0]
	queue = append(queue, 0)
	c.seen[0] = true
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range c.nbr[c.off[v]:c.off[v+1]] {
			if !c.seen[w] {
				c.seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	c.queue = queue
	if len(queue) != n {
		return fmt.Errorf("graph is disconnected: %d of %d vertices reachable from vertex 0", len(queue), n)
	}
	return nil
}

// edgesErr is |realized − target| / target edges, in percent.
func edgesErr(g *nullgraph.Graph, dist *nullgraph.DegreeDistribution) float64 {
	target := float64(dist.NumEdges())
	return 100 * math.Abs(float64(len(g.Edges))-target) / target
}

// generated verifies a Generate sample: simple, on the distribution's
// vertex set, and within edgesTolerance of the target edge count.
func (c *checker) generated(g *nullgraph.Graph, dist *nullgraph.DegreeDistribution) error {
	if g == nil {
		return errors.New("no graph")
	}
	if int64(g.NumVertices) != dist.NumVertices() {
		return fmt.Errorf("%d vertices, want %d", g.NumVertices, dist.NumVertices())
	}
	if err := c.simple(g.Edges, g.NumVertices); err != nil {
		return err
	}
	if e := edgesErr(g, dist); e > 100*edgesTolerance {
		return fmt.Errorf("%d edges is %.2f%% from the target %d", len(g.Edges), e, dist.NumEdges())
	}
	return nil
}

// shuffled verifies a Shuffle sample: simple and degree-preserving,
// and connected when requireConnected is set.
func (c *checker) shuffled(g *nullgraph.Graph, want []int64, requireConnected bool) error {
	if len(want) != g.NumVertices {
		return fmt.Errorf("%d vertices, want %d", g.NumVertices, len(want))
	}
	if err := c.simple(g.Edges, g.NumVertices); err != nil {
		return err
	}
	if err := c.sameDegrees(g.Edges, want); err != nil {
		return err
	}
	if requireConnected {
		return c.connected(g.Edges, g.NumVertices)
	}
	return nil
}

// arcDegrees returns out- and in-degrees (scratch-backed).
func (c *checker) arcDegrees(arcs []nullgraph.Arc, n int) (out, in []int64) {
	c.deg = slices.Grow(c.deg[:0], n)[:n]
	c.deg2 = slices.Grow(c.deg2[:0], n)[:n]
	clear(c.deg)
	clear(c.deg2)
	for _, a := range arcs {
		c.deg[a.From]++
		c.deg2[a.To]++
	}
	return c.deg, c.deg2
}

// directedShuffled verifies a ShuffleDirected sample against the
// input's out- and in-degrees: no loops, no repeated arcs, every
// vertex's in- and out-degree preserved.
func (c *checker) directedShuffled(g *nullgraph.Digraph, wantOut, wantIn []int64) error {
	n := g.NumVertices
	if len(wantOut) != n {
		return fmt.Errorf("%d vertices, want %d", n, len(wantOut))
	}
	c.keys = c.keys[:0]
	for i, a := range g.Arcs {
		if a.From < 0 || a.To < 0 || int(a.From) >= n || int(a.To) >= n {
			return fmt.Errorf("arc %d %v out of range for %d vertices", i, a, n)
		}
		if a.IsLoop() {
			return fmt.Errorf("arc %d %v is a self-loop", i, a)
		}
		c.keys = append(c.keys, a.Key())
	}
	slices.Sort(c.keys)
	for i := 1; i < len(c.keys); i++ {
		if c.keys[i] == c.keys[i-1] {
			return fmt.Errorf("duplicate arc key %#x", c.keys[i])
		}
	}
	out, in := c.arcDegrees(g.Arcs, n)
	for v := 0; v < n; v++ {
		if out[v] != wantOut[v] || in[v] != wantIn[v] {
			return fmt.Errorf("vertex %d has out/in %d/%d, want %d/%d", v, out[v], in[v], wantOut[v], wantIn[v])
		}
	}
	return nil
}

// replacedFraction is the share of before's arcs that after no longer
// holds. It must run right after directedShuffled, whose sorted keys of
// after it reuses.
func (c *checker) replacedFraction(before []nullgraph.Arc) float64 {
	c.keys2 = c.keys2[:0]
	for _, a := range before {
		c.keys2 = append(c.keys2, a.Key())
	}
	slices.Sort(c.keys2)
	kept, i, j := 0, 0, 0
	for i < len(c.keys2) && j < len(c.keys) {
		switch {
		case c.keys2[i] == c.keys[j]:
			kept++
			i++
			j++
		case c.keys2[i] < c.keys[j]:
			i++
		default:
			j++
		}
	}
	return 1 - float64(kept)/float64(len(before))
}

// edgeHash fingerprints an edge list in order, so two runs agree only
// when they produced the same edges in the same positions.
func edgeHash(edges []nullgraph.Edge) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.V))
		h.Write(b[:])
	}
	return h.Sum64()
}

// arcHash is edgeHash for arcs.
func arcHash(arcs []nullgraph.Arc) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range arcs {
		binary.LittleEndian.PutUint32(b[0:], uint32(a.From))
		binary.LittleEndian.PutUint32(b[4:], uint32(a.To))
		h.Write(b[:])
	}
	return h.Sum64()
}

// lastEverSwapped is the ever-swapped fraction after the final swap
// iteration.
func lastEverSwapped(iters []nullgraph.SwapStats) float64 {
	if len(iters) == 0 {
		return 0
	}
	return iters[len(iters)-1].EverSwapped
}
