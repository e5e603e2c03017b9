package connected

import (
	"strings"
	"testing"

	"nullgraph/internal/degseq"
	"nullgraph/internal/graph"
	"nullgraph/internal/rng"
)

func mustDist(t *testing.T, degrees []int64) *degseq.Distribution {
	t.Helper()
	d := degseq.FromDegrees(degrees)
	if err := d.Validate(); err != nil {
		t.Fatalf("FromDegrees(%v): %v", degrees, err)
	}
	return d
}

func assertConnectedSimple(t *testing.T, el *graph.EdgeList, degrees []int64) {
	t.Helper()
	if s := el.CheckSimplicity(); !s.IsSimple() {
		t.Fatalf("graph not simple: %+v", s)
	}
	if _, count := graph.ConnectedComponents(el, 1); count != 1 {
		t.Fatalf("graph has %d components, want 1", count)
	}
	got := el.Degrees(1)
	if len(got) != len(degrees) {
		t.Fatalf("degree count %d, want %d", len(got), len(degrees))
	}
	want := append([]int64(nil), degrees...)
	sortInt64(want)
	gotSorted := append([]int64(nil), got...)
	sortInt64(gotSorted)
	for i := range want {
		if gotSorted[i] != want[i] {
			t.Fatalf("sorted degrees %v, want %v", gotSorted, want)
		}
	}
}

func sortInt64(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestRealizableRejections(t *testing.T) {
	cases := []struct {
		name    string
		degrees []int64
		errSub  string
	}{
		{"isolated-vertices", []int64{0, 0, 0}, "isolated"},
		{"isolated-with-edges", []int64{0, 1, 1}, "isolated"},
		{"sum-odd", []int64{1, 1, 1}, "odd"},
		{"non-graphical", []int64{3, 1}, "graphical"},
		{"forest-split", []int64{1, 1, 1, 1}, "cannot span"},
		{"two-triangles-worth", []int64{1, 1, 1, 1, 1, 1}, "cannot span"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Realizable(mustDist(t, tc.degrees))
			if err == nil {
				t.Fatalf("Realizable(%v) = nil, want error containing %q", tc.degrees, tc.errSub)
			}
			if !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("Realizable(%v) error %q does not contain %q", tc.degrees, err, tc.errSub)
			}
			if _, err := Realize(mustDist(t, tc.degrees)); err == nil {
				t.Fatalf("Realize(%v) succeeded on an unrealizable sequence", tc.degrees)
			}
		})
	}
}

func TestRealizableTrivial(t *testing.T) {
	if err := Realizable(mustDist(t, []int64{0})); err != nil {
		t.Fatalf("single isolated vertex should be trivially connected: %v", err)
	}
}

func TestRealizeConnected(t *testing.T) {
	cases := [][]int64{
		{2, 2, 2, 2, 2, 2},       // Havel–Hakimi yields two triangles; Connect must repair
		{3, 2, 2, 2, 1},          // unicyclic: one cycle plus a pendant vertex
		{1, 2, 2, 2, 1},          // path P5
		{4, 1, 1, 1, 1},          // star
		{3, 3, 3, 3, 3, 3, 3, 3}, // cubic on 8 vertices
		{2, 2, 2, 2, 2, 2, 2, 2}, // all-2s n=8: HH splits into two C4s
	}
	for _, degrees := range cases {
		el, err := Realize(mustDist(t, degrees))
		if err != nil {
			t.Fatalf("Realize(%v): %v", degrees, err)
		}
		assertConnectedSimple(t, el, degrees)
	}
}

func TestConnectRepairsTwoTriangles(t *testing.T) {
	el := graph.NewEdgeList([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	}, 6)
	merges, err := Connect(el)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if merges != 1 {
		t.Fatalf("merges = %d, want 1", merges)
	}
	assertConnectedSimple(t, el, []int64{2, 2, 2, 2, 2, 2})
}

func TestConnectNoCycleEdgeErrors(t *testing.T) {
	// Two disjoint edges: a forest with two components has no spare
	// cycle edge, so no connected realization exists.
	el := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, 4)
	if _, err := Connect(el); err == nil {
		t.Fatal("Connect on a 2-component forest should error")
	}
}

func TestConnectIsolatedVertexErrors(t *testing.T) {
	el := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 4)
	if _, err := Connect(el); err == nil {
		t.Fatal("Connect with an isolated vertex should error")
	}
}

func TestBindRejectsDisconnected(t *testing.T) {
	el := graph.NewEdgeList([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	}, 6)
	c := NewChecker()
	if err := c.Bind(el); err == nil {
		t.Fatal("Bind on a disconnected graph should error")
	}
}

func TestBindRejectsLoops(t *testing.T) {
	el := graph.NewEdgeList([]graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}}, 2)
	c := NewChecker()
	if err := c.Bind(el); err == nil {
		t.Fatal("Bind on a loopy graph should error")
	}
}

// TestBindRejectsMultiEdges pins that Bind refuses a parallel pair:
// the checker's adjacency is the connected chain's simplicity test,
// which holds only from a simple start.
func TestBindRejectsMultiEdges(t *testing.T) {
	el := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 1}, {U: 2, V: 0}}, 3)
	c := NewChecker()
	err := c.Bind(el)
	if err == nil {
		t.Fatal("Bind on a multigraph should error")
	}
	if !strings.Contains(err.Error(), "parallel") {
		t.Fatalf("Bind error %q does not name the parallel edges", err)
	}
	// The same triangle without the repeat binds.
	if err := c.Bind(cycle(3)); err != nil {
		t.Fatalf("Bind(C3) after a rejected multigraph: %v", err)
	}
}

func TestCheckerRejectsDisconnectingSwap(t *testing.T) {
	// C6; swapping edges (0,1) and (3,4) into (0,4),(1,3) splits it
	// into two triangles.
	el := cycle(6)
	c := NewChecker()
	if err := c.Bind(el); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	e, f := graph.Edge{U: 0, V: 1}, graph.Edge{U: 3, V: 4}
	g, h := graph.Edge{U: 0, V: 4}, graph.Edge{U: 1, V: 3}
	if c.SwapKeepsConnected(e, f, g, h) {
		t.Fatal("disconnecting swap accepted")
	}
	st := c.StatsSnapshot()
	if st.RejectedDisconnecting != 1 {
		t.Fatalf("RejectedDisconnecting = %d, want 1", st.RejectedDisconnecting)
	}
	// The rollback must leave the checker's adjacency intact: the same
	// rejected swap proposed again must produce the same verdict, and
	// the graph must still verify as connected.
	if c.SwapKeepsConnected(e, f, g, h) {
		t.Fatal("disconnecting swap accepted on retry")
	}
	if !c.Connected() {
		t.Fatal("checker adjacency corrupted by rollback")
	}
}

func cycle(n int) *graph.EdgeList {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	return graph.NewEdgeList(edges, n)
}

// withChord returns the n-cycle plus the edge (u, v).
func withChord(n int, u, v int32) *graph.EdgeList {
	el := cycle(n)
	return graph.NewEdgeList(append(el.Edges, graph.Edge{U: u, V: v}), n)
}

// swapCase is one proposal on a small graph whose BFS witness is known:
// tree lists the witness edges the proposal relies on, as (child,
// parent) pairs checked right after Bind.
type swapCase struct {
	name       string
	el         *graph.EdgeList
	tree       [][2]int32
	e, f, g, h graph.Edge
}

// bind binds a fresh checker with the given budget to tc.el and checks
// tc.tree against its witness.
func (tc swapCase) bind(t *testing.T, bound int) *Checker {
	t.Helper()
	c := NewChecker()
	c.SetBound(bound)
	if err := c.Bind(tc.el); err != nil {
		t.Fatalf("%s: Bind: %v", tc.name, err)
	}
	for _, te := range tc.tree {
		if c.parent[te[0]] != te[1] {
			t.Fatalf("%s: (%d,%d) is not a witness edge: parent %v", tc.name, te[0], te[1], c.parent)
		}
	}
	return c
}

// swapped returns tc.el with e and f replaced by g and h.
func (tc swapCase) swapped() *graph.EdgeList {
	el := tc.el.Clone()
	for i, x := range el.Edges {
		switch x.Key() {
		case tc.e.Key():
			el.Edges[i] = tc.g
		case tc.f.Key():
			el.Edges[i] = tc.h
		}
	}
	return el
}

var (
	// thetaSwap: C6 plus chord (0,3), whose BFS witness is 0-1-2, 0-5-4
	// and 0-3. The disjoint tree edges (1,2) and (4,5) become (1,4) and
	// (2,5), each joining a detached leaf to the root's fragment.
	thetaSwap = swapCase{
		name: "theta",
		el:   withChord(6, 0, 3),
		tree: [][2]int32{{2, 1}, {4, 5}},
		e:    graph.Edge{U: 1, V: 2}, f: graph.Edge{U: 4, V: 5},
		g: graph.Edge{U: 1, V: 4}, h: graph.Edge{U: 2, V: 5},
	}
	// chordSwap: C8 plus chord (3,5), whose BFS witness is the paths
	// 0-1-2-3-4 and 0-7-6-5. Tree edge (1,2) and non-tree edge (4,5)
	// become (1,5), inside the root's fragment, and (2,4), inside the
	// detached {2,3,4}: neither crosses the cut, and only the chord
	// (3,5) reconnects.
	chordSwap = swapCase{
		name: "chord",
		el:   withChord(8, 3, 5),
		tree: [][2]int32{{2, 1}, {3, 2}, {4, 3}, {5, 6}},
		e:    graph.Edge{U: 1, V: 2}, f: graph.Edge{U: 4, V: 5},
		g: graph.Edge{U: 1, V: 5}, h: graph.Edge{U: 2, V: 4},
	}
	// prqqSwap: thetaSwap's graph and tree edges rewired the other way.
	// (1,2) and (5,4) leave P = {2}, Q = {0,1,3,5} and R = {4}; g =
	// (1,5) joins Q to Q and h = (2,4) joins P to R. No certificate
	// exists, but the chord (0,3) keeps Q joined to P through 3–2.
	prqqSwap = swapCase{
		name: "P-R+Q-Q",
		el:   withChord(6, 0, 3),
		tree: [][2]int32{{2, 1}, {4, 5}},
		e:    graph.Edge{U: 1, V: 2}, f: graph.Edge{U: 5, V: 4},
		g: graph.Edge{U: 1, V: 5}, h: graph.Edge{U: 2, V: 4},
	}
	// deepSwap: C12 plus chord (1,10), whose BFS witness is the paths
	// 0-1-2-3-4-5-6, 1-10-9-8-7 and 0-11. Tree edges (5,6) and (8,7)
	// become (5,7) and (6,8); at a budget of 4 the certificate's walk
	// up from 5 gives up before it reaches the root.
	deepSwap = swapCase{
		name: "deep",
		el:   withChord(12, 1, 10),
		tree: [][2]int32{{6, 5}, {7, 8}},
		e:    graph.Edge{U: 5, V: 6}, f: graph.Edge{U: 8, V: 7},
		g: graph.Edge{U: 5, V: 7}, h: graph.Edge{U: 6, V: 8},
	}
)

// TestCheckerStatsPaths pins which counters each check tier bumps.
func TestCheckerStatsPaths(t *testing.T) {
	for _, tc := range []struct {
		swapCase
		bound int
		want  Stats
	}{
		// g and h each join a detached leaf to the root's fragment: the
		// certificate accepts and repairs with no search.
		{thetaSwap, defaultBound, Stats{Proposals: 1}},
		// Neither g nor h crosses: the bounded search finds the path
		// through the chord, and the path relink repairs locally.
		{chordSwap, defaultBound, Stats{Proposals: 1, BoundedChecks: 1, BoundedConclusive: 1}},
		// A budget of 2 leaves the search inconclusive; the full BFS
		// that settles it saves no path, so the witness is rebuilt.
		{chordSwap, 0, Stats{Proposals: 1, BoundedChecks: 1, FullChecks: 1, WitnessRebuilds: 1}},
		// Every endpoint labelled and no certificate: the search for e
		// alone decides, and e re-links through h and f through e's
		// path, with no rebuild.
		{prqqSwap, defaultBound, Stats{Proposals: 1, BoundedChecks: 1, BoundedConclusive: 1}},
		// A labelling walk gave up, so the rewiring is unknown and each
		// removed tree edge gets its own search; the repair's walks give
		// up too, so the witness is rebuilt.
		{deepSwap, 4, Stats{Proposals: 1, BoundedChecks: 2, BoundedConclusive: 2, WitnessRebuilds: 1}},
	} {
		c := tc.bind(t, tc.bound)
		if !c.SwapKeepsConnected(tc.e, tc.f, tc.g, tc.h) {
			t.Fatalf("%s at bound %d: connectivity-preserving swap rejected", tc.name, tc.bound)
		}
		if st := c.StatsSnapshot(); st != tc.want {
			t.Fatalf("%s at bound %d: tree-touching accept took wrong path: %+v, want %+v", tc.name, tc.bound, st, tc.want)
		}
		assertWitness(t, c, tc.swapped())
	}
}

// TestCheckerCertificate pins the two-tree-edge certificate: a swap is
// accepted with no search exactly when g and h each join two different
// fragments of the witness minus e and f.
func TestCheckerCertificate(t *testing.T) {
	// C8 plus chord (3,5) has the BFS witness 0-1-2-3-4, 0-7-6-5.
	nested := withChord(8, 3, 5)
	for _, tc := range []struct {
		swapCase
		accept bool
	}{
		// Disjoint: (1,2) and (4,5) leave {0,1,3,5}, {2} and {4}.
		{thetaSwap, true},
		// Nested: (1,2) and (3,4) leave {0,1,5,6,7}, {2,3} and {4};
		// (1,3) and (2,4) chain them root to leaf.
		{swapCase{
			name: "nested", el: nested,
			tree: [][2]int32{{2, 1}, {4, 3}},
			e:    graph.Edge{U: 1, V: 2}, f: graph.Edge{U: 3, V: 4},
			g: graph.Edge{U: 1, V: 3}, h: graph.Edge{U: 2, V: 4},
		}, true},
		// The same swap with the roles exchanged: g = (2,4) joins the
		// two detached fragments and misses the root's, which h joins.
		{swapCase{
			name: "nested-g-off-root", el: nested,
			tree: [][2]int32{{2, 1}, {4, 3}},
			e:    graph.Edge{U: 3, V: 4}, f: graph.Edge{U: 1, V: 2},
			g: graph.Edge{U: 2, V: 4}, h: graph.Edge{U: 1, V: 3},
		}, true},
		// C6's BFS witness is 0-1-2-3, 0-5-4. (1,2) and (4,5) leave
		// P = {2,3}, Q = {0,1,5} and R = {4}; (1,5) joins Q to Q and
		// (2,4) joins P to R, which splits C6 into two triangles.
		{swapCase{
			name: "P-R+Q-Q", el: cycle(6),
			tree: [][2]int32{{2, 1}, {4, 5}},
			e:    graph.Edge{U: 1, V: 2}, f: graph.Edge{U: 4, V: 5},
			g: graph.Edge{U: 1, V: 5}, h: graph.Edge{U: 2, V: 4},
		}, false},
		// The same with e and f, and g and h, exchanged.
		{swapCase{
			name: "P-R+Q-Q-exchanged", el: cycle(6),
			tree: [][2]int32{{2, 1}, {4, 5}},
			e:    graph.Edge{U: 4, V: 5}, f: graph.Edge{U: 1, V: 2},
			g: graph.Edge{U: 4, V: 2}, h: graph.Edge{U: 5, V: 1},
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.bind(t, defaultBound)
			got := func() (ok bool) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("checker panicked: %v", r)
					}
				}()
				return c.SwapKeepsConnected(tc.e, tc.f, tc.g, tc.h)
			}()
			if got != tc.accept {
				t.Fatalf("verdict %v, want %v", got, tc.accept)
			}
			st := c.StatsSnapshot()
			if !tc.accept {
				if st.RejectedDisconnecting != 1 {
					t.Fatalf("rejection not counted: %+v", st)
				}
				assertWitness(t, c, tc.el)
				return
			}
			if st.BoundedChecks != 0 || st.FullChecks != 0 || st.WitnessRebuilds != 0 {
				t.Fatalf("certified accept searched or rebuilt: %+v", st)
			}
			assertWitness(t, c, tc.swapped())
			if !c.Connected() {
				t.Fatal("checker adjacency disconnected after accept")
			}
		})
	}
}

// validProposal reports whether removing edges at positions i, j and
// adding g, h is a legal simple-cell swap (the engine-side filter).
func validProposal(el *graph.EdgeList, i, j int, g, h graph.Edge) bool {
	if i == j || g.IsLoop() || h.IsLoop() {
		return false
	}
	gk, hk := g.Key(), h.Key()
	if gk == hk {
		return false
	}
	ek, fk := el.Edges[i].Key(), el.Edges[j].Key()
	if (gk == ek && hk == fk) || (gk == fk && hk == ek) {
		return false
	}
	for p, e := range el.Edges {
		if p == i || p == j {
			continue
		}
		k := e.Key()
		if k == gk || k == hk {
			return false
		}
	}
	return true
}

// assertWitness checks the checker's witness against el, independently
// of the checker's own recheck: exactly one root, every (v, parent[v])
// an edge of el, and every walk up the parent pointers ending at the
// root.
func assertWitness(t *testing.T, c *Checker, el *graph.EdgeList) {
	t.Helper()
	edges := make(map[uint64]bool, len(el.Edges))
	for _, e := range el.Edges {
		edges[e.Key()] = true
	}
	roots := 0
	for v, p := range c.parent {
		if p < 0 {
			roots++
		} else if !edges[graph.Edge{U: int32(v), V: p}.Key()] {
			t.Fatalf("witness holds (%d,%d), which is not an edge", v, p)
		}
	}
	if roots != 1 {
		t.Fatalf("witness has %d roots, want 1", roots)
	}
	// walk[v] is 0 while unseen, -1 once v is known to reach the root,
	// and the 1-based start vertex of the walk in progress otherwise.
	walk := make([]int, len(c.parent))
	for v := range c.parent {
		w := int32(v)
		for c.parent[w] >= 0 && walk[w] != -1 {
			if walk[w] == v+1 {
				t.Fatalf("witness has a cycle through vertex %d", w)
			}
			walk[w] = v + 1
			w = c.parent[w]
		}
		for w = int32(v); c.parent[w] >= 0 && walk[w] != -1; w = c.parent[w] {
			walk[w] = -1
		}
	}
}

// assertTwins checks the checker's twin index: each arc's twin is the
// index of its reverse arc within the head's neighbor range, and the
// reverse arc's twin points back.
func assertTwins(t *testing.T, c *Checker) {
	t.Helper()
	for u := 0; u < c.n; u++ {
		for i := int32(0); i < c.deg[u]; i++ {
			p := c.off[u] + int64(i)
			v, j := c.nbr[p], c.twin[p]
			if j < 0 || j >= c.deg[v] {
				t.Fatalf("arc %d->%d: twin index %d outside %d's %d neighbors", u, v, j, v, c.deg[v])
			}
			if q := c.off[v] + int64(j); c.nbr[q] != int32(u) || c.twin[q] != i {
				t.Fatalf("arc %d->%d at %d: twin %d holds arc %d->%d with twin %d", u, v, i, j, v, c.nbr[q], c.twin[q])
			}
		}
	}
}

// TestCheckerMatchesGroundTruth exhaustively proposes every legal swap
// on several small connected graphs and checks the verdict against a
// from-scratch component count of the post-swap graph, at the default
// budget and at a tiny budget that forces the full-BFS fallback. Every
// accepted swap must leave the witness a spanning tree of the new graph
// and every arc's twin its reverse.
func TestCheckerMatchesGroundTruth(t *testing.T) {
	starts := []*graph.EdgeList{cycle(6), cycle(8)}
	if el, err := Realize(mustDist(t, []int64{3, 3, 3, 3, 3, 3, 3, 3})); err != nil {
		t.Fatal(err)
	} else {
		starts = append(starts, el)
	}
	if el, err := Realize(mustDist(t, []int64{3, 2, 2, 2, 1})); err != nil {
		t.Fatal(err)
	} else {
		starts = append(starts, el)
	}
	for _, bound := range []int{0, defaultBound} { // 0 clamps to 2: forces slow paths
		for _, start := range starts {
			c := NewChecker()
			c.SetBound(bound)
			m := len(start.Edges)
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					for coin := 0; coin < 2; coin++ {
						el := start.Clone()
						e, f := el.Edges[i], el.Edges[j]
						var g, h graph.Edge
						if coin == 0 {
							g, h = graph.Edge{U: e.U, V: f.U}, graph.Edge{U: e.V, V: f.V}
						} else {
							g, h = graph.Edge{U: e.U, V: f.V}, graph.Edge{U: e.V, V: f.U}
						}
						if !validProposal(el, i, j, g, h) {
							continue
						}
						if err := c.Bind(el); err != nil {
							t.Fatalf("Bind: %v", err)
						}
						got := c.SwapKeepsConnected(e, f, g, h)
						el.Edges[i], el.Edges[j] = g, h
						_, count := graph.ConnectedComponents(el, 1)
						if want := count == 1; got != want {
							t.Fatalf("swap (%v,%v)->(%v,%v) at bound %d: checker says %v, ground truth %v",
								e, f, g, h, bound, got, want)
						}
						if got && !c.Connected() {
							t.Fatal("checker adjacency inconsistent after accepted swap")
						}
						if got {
							assertWitness(t, c, el)
							assertTwins(t, c)
						}
					}
				}
			}
			st := c.StatsSnapshot()
			if st.Proposals == 0 {
				t.Fatal("no proposals exercised")
			}
		}
	}
}

// TestCheckerRandomChain runs a long random swap chain on a cubic
// graph with the recheck forced every accepted swap, so the internal
// invariant panic would fire on any bookkeeping bug, and validates the
// witness and the twin index independently after every accepted swap.
func TestCheckerRandomChain(t *testing.T) {
	degrees := []int64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	el, err := Realize(mustDist(t, degrees))
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker()
	c.SetRecheckEvery(1)
	if err := c.Bind(el); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	accepted := randomChain(t, c, el, 42, 4000)
	assertConnectedSimple(t, el, degrees)
	st := c.StatsSnapshot()
	if st.FullRechecks != int64(accepted) {
		t.Fatalf("FullRechecks = %d, want %d (one per accepted swap)", st.FullRechecks, accepted)
	}
	if st.FastPathHits == 0 || st.BoundedChecks == 0 {
		t.Fatalf("expected both fast-path and bounded-path traffic, got %+v", st)
	}
}

// TestCheckerPathLikeChain runs a long random chain on a sequence of
// mostly degree-2 vertices: its spanning trees are deep paths, so
// most subtree-membership walks of the witness repair run past the
// search budget and fall back to a full rebuild, while swaps near the
// root are still repaired locally.
func TestCheckerPathLikeChain(t *testing.T) {
	degrees := make([]int64, 1000)
	for v := range degrees {
		degrees[v] = 2
		if v%50 == 0 {
			degrees[v] = 3
		}
	}
	el, err := Realize(mustDist(t, degrees))
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker()
	c.SetRecheckEvery(97)
	if err := c.Bind(el); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	accepted := randomChain(t, c, el, 7, 6000)
	assertConnectedSimple(t, el, degrees)
	st := c.StatsSnapshot()
	treeTouching := int64(accepted) - st.FastPathHits
	if st.WitnessRebuilds == 0 || st.WitnessRebuilds >= treeTouching {
		t.Fatalf("want both local repairs and rebuilds among %d tree-touching accepts, got %+v", treeTouching, st)
	}
}

// randomChain proposes steps uniform random swaps on el, applies the
// ones c accepts to el, validates the witness and the twin index after
// each, and returns the number accepted.
func randomChain(t *testing.T, c *Checker, el *graph.EdgeList, seed uint64, steps int) int {
	t.Helper()
	src := rng.New(seed)
	m := uint64(len(el.Edges))
	accepted := 0
	for step := 0; step < steps; step++ {
		i, j := int(src.Uint64n(m)), int(src.Uint64n(m))
		e, f := el.Edges[i], el.Edges[j]
		var g, h graph.Edge
		if src.Bool() {
			g, h = graph.Edge{U: e.U, V: f.U}, graph.Edge{U: e.V, V: f.V}
		} else {
			g, h = graph.Edge{U: e.U, V: f.V}, graph.Edge{U: e.V, V: f.U}
		}
		if !validProposal(el, i, j, g, h) {
			continue
		}
		if c.SwapKeepsConnected(e, f, g, h) {
			el.Edges[i], el.Edges[j] = g, h
			accepted++
			assertWitness(t, c, el)
			assertTwins(t, c)
		}
	}
	if accepted == 0 {
		t.Fatal("chain never accepted a swap")
	}
	return accepted
}

// TestRecheckPanicsOnBrokenWitness pins that the periodic recheck
// verifies the witness, not only connectivity: each corruption of a
// cycle's BFS tree must panic.
func TestRecheckPanicsOnBrokenWitness(t *testing.T) {
	for _, tc := range []struct {
		name      string
		v, parent int32
	}{
		{"absent edge", 3, 0},
		{"second root", 3, -1},
		{"cycle", 1, 2},
	} {
		c := NewChecker()
		c.SetRecheckEvery(1)
		if err := c.Bind(cycle(6)); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		c.parent[tc.v] = tc.parent
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: recheck did not panic on witness %v", tc.name, c.parent)
				}
			}()
			c.maybeRecheck()
		}()
	}
}

// TestSwapKeepsConnectedDoesNotAllocate pins that every path of the
// check (fast path, bounded searches, local repair, rollback, full
// fallback and rebuild, recheck) and the HasEdge simplicity test
// allocate nothing after Bind. Each accepted proposal is undone by its
// inverse, so the same proposal list stays legal on every run.
func TestSwapKeepsConnectedDoesNotAllocate(t *testing.T) {
	el := treePlusChords(256, 400, 3)
	type proposal struct{ e, f, g, h graph.Edge }
	var props []proposal
	src := rng.New(9)
	m := uint64(len(el.Edges))
	for len(props) < 200 {
		i, j := int(src.Uint64n(m)), int(src.Uint64n(m))
		e, f := el.Edges[i], el.Edges[j]
		g, h := graph.Edge{U: e.U, V: f.U}, graph.Edge{U: e.V, V: f.V}
		if src.Bool() {
			g, h = graph.Edge{U: e.U, V: f.V}, graph.Edge{U: e.V, V: f.U}
		}
		if validProposal(el, i, j, g, h) {
			props = append(props, proposal{e, f, g, h})
		}
	}
	for _, bound := range []int{0, defaultBound} {
		c := NewChecker()
		c.SetBound(bound)
		c.SetRecheckEvery(5)
		if err := c.Bind(el); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		wrong := 0
		allocs := testing.AllocsPerRun(5, func() {
			for _, p := range props {
				if !c.HasEdge(p.e) || !c.HasEdge(p.f) || c.HasEdge(p.g) || c.HasEdge(p.h) {
					wrong++
				}
				if c.SwapKeepsConnected(p.e, p.f, p.g, p.h) {
					c.SwapKeepsConnected(p.g, p.h, p.e, p.f)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("bound %d: SwapKeepsConnected allocated %v times per run", bound, allocs)
		}
		if wrong != 0 {
			t.Errorf("bound %d: HasEdge misjudged %d proposals' edges", bound, wrong)
		}
		if st := c.StatsSnapshot(); st.RejectedDisconnecting == 0 || st.BoundedChecks == 0 {
			t.Errorf("bound %d: proposals missed a check path: %+v", bound, st)
		}
	}
}

// treePlusChords builds a sparse connected simple graph on n vertices
// with m edges: a random recursive tree plus uniform chords, loops and
// duplicates redrawn.
func treePlusChords(n, m int, seed uint64) *graph.EdgeList {
	src := rng.New(seed)
	edges := make([]graph.Edge, 0, m)
	seen := make(map[uint64]bool, m)
	for i := 1; i < n; i++ {
		e := graph.Edge{U: int32(src.Uint64n(uint64(i))), V: int32(i)}
		seen[e.Key()] = true
		edges = append(edges, e)
	}
	for len(edges) < m {
		e := graph.Edge{U: int32(src.Uint64n(uint64(n))), V: int32(src.Uint64n(uint64(n)))}
		if e.IsLoop() || seen[e.Key()] {
			continue
		}
		seen[e.Key()] = true
		edges = append(edges, e)
	}
	return graph.NewEdgeList(edges, n)
}

// BenchmarkCheckerSparseChain times one proposal of a random swap chain
// through the checker on a sparse connected graph (2048 vertices, 4096
// edges), where most proposals remove a witness-tree edge. The
// simplicity filter is HasEdge, as in the engine's connected chain.
func BenchmarkCheckerSparseChain(b *testing.B) {
	el := treePlusChords(2048, 4096, 1)
	c := NewChecker()
	if err := c.Bind(el); err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	m := uint64(len(el.Edges))
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i, j := int(src.Uint64n(m)), int(src.Uint64n(m))
		e, f := el.Edges[i], el.Edges[j]
		g, h := graph.Edge{U: e.U, V: f.U}, graph.Edge{U: e.V, V: f.V}
		if src.Bool() {
			g, h = graph.Edge{U: e.U, V: f.V}, graph.Edge{U: e.V, V: f.U}
		}
		if i == j || g.IsLoop() || h.IsLoop() || g.Key() == h.Key() || c.HasEdge(g) || c.HasEdge(h) {
			continue
		}
		if c.SwapKeepsConnected(e, f, g, h) {
			el.Edges[i], el.Edges[j] = g, h
		}
	}
	st := c.StatsSnapshot()
	b.ReportMetric(float64(st.WitnessRebuilds)/float64(b.N), "rebuilds/op")
	b.ReportMetric(float64(st.BoundedChecks)/float64(st.Proposals), "searches/proposal")
}

func TestBindReuse(t *testing.T) {
	c := NewChecker()
	for rebind := 0; rebind < 3; rebind++ {
		el := cycle(6)
		if err := c.Bind(el); err != nil {
			t.Fatalf("Bind #%d: %v", rebind, err)
		}
		if !c.Connected() {
			t.Fatalf("Bind #%d: not connected", rebind)
		}
		if st := c.StatsSnapshot(); st.Proposals != 0 {
			t.Fatalf("Bind #%d did not reset stats: %+v", rebind, st)
		}
	}
	// Rebind to a larger graph must regrow buffers correctly.
	if err := c.Bind(cycle(40)); err != nil {
		t.Fatalf("Bind larger: %v", err)
	}
	if !c.Connected() {
		t.Fatal("larger rebind: not connected")
	}
}
