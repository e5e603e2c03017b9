package connected

import (
	"encoding/binary"
	"math"
	"testing"

	"nullgraph/internal/degseq"
	"nullgraph/internal/graph"
)

// FuzzConnectedSeed feeds arbitrary degree sequences to the connected
// constructor: every input must either error (non-graphical, or no
// connected realization) or produce a connected simple graph with
// exactly the requested degrees. Degrees are parsed as 4-byte
// little-endian words so the fuzzer can reach large and hostile values
// (near-MaxInt32, sum-odd) without astronomically long inputs.
func FuzzConnectedSeed(f *testing.F) {
	f.Add([]byte{})                                     // empty
	f.Add(seedBytes(0, 0, 0))                           // all zeros
	f.Add(seedBytes(4, 1, 1, 1, 1))                     // star
	f.Add(seedBytes(2, 2, 2, 2, 2, 2))                  // two-triangles repair case
	f.Add(seedBytes(3, 2, 2, 2, 1))                     // unicyclic
	f.Add(seedBytes(1, 1, 1))                           // sum-odd
	f.Add(seedBytes(1, 1, 1, 1))                        // forest split
	f.Add(seedBytes(math.MaxInt32, 1))                  // near-MaxInt32 degree
	f.Add(seedBytes(math.MaxInt32, math.MaxInt32-1, 2)) // huge non-graphical
	f.Add(seedBytes(7, 7, 7, 7, 7, 7, 7, 7))            // dense regular
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxDegrees = 64
		nd := len(data) / 4
		if nd > maxDegrees {
			nd = maxDegrees
		}
		degrees := make([]int64, 0, nd)
		for i := 0; i < nd; i++ {
			degrees = append(degrees, int64(binary.LittleEndian.Uint32(data[4*i:])))
		}
		if len(degrees) == 0 {
			return // empty sequences fail Distribution.Validate
		}
		// Degrees >= n are non-graphical, so with n <= maxDegrees every
		// realizable input is small; hostile huge values exercise only
		// the rejection path.
		dist := degseq.FromDegrees(degrees)
		el, err := Realize(dist)
		if err != nil {
			return // rejection is a valid outcome; it must not panic
		}
		if s := el.CheckSimplicity(); !s.IsSimple() {
			t.Fatalf("Realize(%v) returned a non-simple graph: %+v", degrees, s)
		}
		if _, count := graph.ConnectedComponents(el, 1); count != 1 && len(degrees) > 1 {
			t.Fatalf("Realize(%v) returned %d components", degrees, count)
		}
		got := el.Degrees(1)
		counts := map[int64]int{}
		for _, d := range degrees {
			counts[d]++
		}
		for _, d := range got {
			counts[d]--
		}
		for d, c := range counts {
			if c != 0 {
				t.Fatalf("Realize(%v): degree %d off by %d", degrees, d, c)
			}
		}
	})
}

func seedBytes(degrees ...uint32) []byte {
	b := make([]byte, 4*len(degrees))
	for i, d := range degrees {
		binary.LittleEndian.PutUint32(b[4*i:], d)
	}
	return b
}

// FuzzCheckerChain runs a swap chain decoded from the fuzz bytes
// through one Checker, so the witness drifts across proposals as it
// does in the connected chain. The graph is a random recursive tree
// plus chords on up to 16 vertices; every later 3-byte group proposes
// the swap of two edge positions with one of the two rewirings. Every
// verdict must equal a from-scratch component count of the post-swap
// graph, every accept must leave the witness a spanning tree of it,
// the recheck after every accept must not panic, and after every
// proposal HasEdge must agree with an edge-set oracle on e, f, g and h.
func FuzzCheckerChain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 0, 1, 2, 3, 4, 1, 0, 3, 0, 4, 1, 1, 3, 0, 2, 5, 1})        // cycle-like, bound 2
	f.Add([]byte{10, 7, 0, 0, 1, 1, 2, 3, 5, 4, 9, 2, 8, 5, 1, 7, 3, 0, 2, 6, 1}) // default bound
	f.Add([]byte{16, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 3, 9, 12, 0, 15, 4, 2, 7, 1, 11, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%15
		bound := defaultBound
		if data[1]%2 == 0 {
			bound = int(data[1]) % 8 // small budgets force every fallback
		}
		chords := int(data[2]) % (2 * n)
		data = data[3:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		edges := make([]graph.Edge, 0, n-1+chords)
		seen := make(map[uint64]bool)
		for v := 1; v < n; v++ {
			e := graph.Edge{U: int32(next() % v), V: int32(v)}
			seen[e.Key()] = true
			edges = append(edges, e)
		}
		for k := 0; k < chords; k++ {
			e := graph.Edge{U: int32(next() % n), V: int32(next() % n)}
			if e.IsLoop() || seen[e.Key()] {
				continue
			}
			seen[e.Key()] = true
			edges = append(edges, e)
		}
		el := graph.NewEdgeList(edges, n)
		c := NewChecker()
		c.SetBound(bound)
		c.SetRecheckEvery(1)
		if err := c.Bind(el); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		m := len(el.Edges)
		for len(data) >= 3 {
			i, j, coin := next()%m, next()%m, next()%2
			e, f := el.Edges[i], el.Edges[j]
			g, h := graph.Edge{U: e.U, V: f.U}, graph.Edge{U: e.V, V: f.V}
			if coin == 1 {
				g, h = graph.Edge{U: e.U, V: f.V}, graph.Edge{U: e.V, V: f.U}
			}
			if validProposal(el, i, j, g, h) {
				got := c.SwapKeepsConnected(e, f, g, h)
				after := el.Clone()
				after.Edges[i], after.Edges[j] = g, h
				if _, count := graph.ConnectedComponents(after, 1); got != (count == 1) {
					t.Fatalf("swap (%v,%v)->(%v,%v): checker says %v, graph has %d components", e, f, g, h, got, count)
				}
				if got {
					el = after
					delete(seen, e.Key())
					delete(seen, f.Key())
					seen[g.Key()] = true
					seen[h.Key()] = true
				}
				assertWitness(t, c, el)
			}
			for _, x := range [4]graph.Edge{e, f, g, h} {
				if got := c.HasEdge(x); got != seen[x.Key()] {
					t.Fatalf("after (%v,%v)->(%v,%v): HasEdge(%v) = %v, want %v", e, f, g, h, x, got, !got)
				}
			}
		}
	})
}
