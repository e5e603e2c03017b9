// Package connected provides connected-graph sampling support for the
// simple cells: a seed constructor that realizes a degree sequence as a
// *connected* simple graph (seed.go), and a Checker that decides
// whether a proposed double-edge swap keeps the graph connected using
// Viger–Latapy-style heuristics (arXiv:cs/0502085).
//
// # Check hierarchy
//
// The Checker maintains a cached BFS spanning-tree witness of the
// current graph, stored as a parent array. A swap removes two edges and
// adds two (degree-preserving), so connectivity can only break when a
// removed edge is a witness tree edge. The tree minus its removed edges
// splits the vertices into at most three fragments, each internally
// connected by surviving tree edges:
//
//  1. Fast path: neither removed edge is a tree edge — the witness
//     still spans the new graph, accept with two array comparisons and
//     no traversal.
//  2. Cut certificate: label the endpoints of the added edges g and h
//     by their fragment, one walk up the parent pointers each. Accept
//     with no search when g or h joins the two fragments one removed
//     tree edge leaves, or, with two removed, when g and h each join
//     two different fragments: {g, h} rewires the endpoints of the
//     removed edges, which lie in fragments {P, Q, Q, R}, so that is
//     exactly when they span all three.
//  3. Bounded path: for each removed tree edge, run a bounded
//     bidirectional BFS between its endpoints in the post-swap graph.
//     Reconnecting every removed tree edge's endpoint pair re-links the
//     fragments along the old tree topology, so "every pair
//     reconnects" implies the whole graph is connected. A search that
//     exhausts one side without meeting the other has fully explored
//     that side's component and proves disconnection. When the
//     certificate labelled all four endpoints and found no certificate,
//     the swap is a P–R + Q–Q rewiring: one added edge joins P to R and
//     each removed edge joined Q to P or R, so the search for e alone
//     decides whether Q still reaches P ∪ R, and it is the only one run.
//  4. Full fallback: a bounded search that hits its visit budget while
//     both frontiers are alive is inconclusive; fall back to one full
//     BFS from vertex 0.
//
// Accepting a swap that touched the tree repairs the witness locally:
// each removed tree edge detaches its child's subtree, and an edge of
// the new graph that crosses that cut (the certificate's g or h, else
// the first crossing edge on the path the bounded search found)
// re-attaches it after the subtree is re-rooted at the crossing edge's
// inner end; after a single P–R + Q–Q search, e re-attaches through the
// P–R edge and f through e's path, which leaves Q. The witness stays a
// spanning tree, though no longer a BFS tree. The witness is rebuilt as a BFS tree instead when a search fell
// through to the full BFS, which saves no path but leaves its own BFS
// tree to adopt, or when a subtree-membership walk up the parent
// pointers runs past the search budget, which costs one more BFS and
// bounds how deep the tree can drift. A belt-and-braces full recheck
// runs every recheckEvery accepted swaps: it verifies connectivity and
// that the witness is a spanning tree of the current graph, and panics
// on an invariant breach. DESIGN.md §16 tabulates the cost model.
//
// The adjacency is also the connected chain's simplicity test
// (HasEdge scans the lower-degree endpoint's neighbours), and each arc
// records the position of its reverse, so removing an edge scans only
// its lower-degree end.
//
// The Checker is not safe for concurrent use; the serial connected
// chain in internal/swap owns one per engine.
package connected

import (
	"fmt"
	"slices"

	"nullgraph/internal/graph"
)

const (
	// defaultBound is the total-visit budget of one bounded
	// bidirectional search before it falls back to a full BFS. Most
	// swap-local disconnections are small cycles split off the giant
	// component, so a small budget resolves the overwhelming majority
	// of tree-touching proposals without an O(n+m) traversal. It also
	// caps each parent-pointer walk of the cut certificate and of the
	// witness repair: a certificate walk past it falls through to the
	// search, and a repair walk past it to a rebuild.
	defaultBound = 256
	// defaultRecheckEvery is the accepted-swap period of the
	// belt-and-braces full connectivity recheck.
	defaultRecheckEvery = 1 << 14
)

// Stats counts connectivity-check outcomes; they feed the RunReport's
// connectivity section (obs.ConnectivityReport). A proposal the cut
// certificate accepts bumps Proposals alone (and FullRechecks when the
// periodic recheck falls due), so BoundedChecks and the counters after
// it count only the proposals the certificate left unsettled.
type Stats struct {
	// Proposals is the number of swaps submitted to the checker.
	Proposals int64
	// FastPathHits counts proposals accepted with no traversal at all
	// (neither removed edge was a witness tree edge).
	FastPathHits int64
	// BoundedChecks counts bounded bidirectional searches run: one
	// per removed tree edge of a proposal the certificate left
	// unsettled, except a P–R + Q–Q rewiring (both tree edges removed,
	// every endpoint labelled, no certificate), which runs one alone.
	// BoundedConclusive counts those that resolved within budget.
	BoundedChecks     int64
	BoundedConclusive int64
	// FullChecks counts full-BFS fallbacks (inconclusive bounded
	// searches and explicit Connected() calls).
	FullChecks int64
	// WitnessRebuilds counts full-BFS spanning-tree reconstructions
	// after accepted tree-touching swaps that the local repair could
	// not settle.
	WitnessRebuilds int64
	// RejectedDisconnecting counts proposals rejected because they
	// would have disconnected the graph.
	RejectedDisconnecting int64
	// FullRechecks counts periodic belt-and-braces full verifications.
	FullRechecks int64
}

// Checker answers "does this swap keep the graph connected?" against a
// live adjacency view it maintains itself. Bind it to a connected edge
// list, then feed every committed swap through SwapKeepsConnected; the
// checker applies accepted swaps to its adjacency and rolls rejected
// ones back, so it always mirrors the caller's edge list, and HasEdge
// answers membership in it.
type Checker struct {
	n int

	// CSR-style adjacency with in-place deletion: vertex v's current
	// neighbors are nbr[off[v] : off[v]+int64(deg[v])], with capacity
	// off[v+1]-off[v] equal to v's (invariant) degree. Swaps preserve
	// every degree, so removals-before-insertions keep each slot range
	// in bounds and the structure allocation-free after Bind. twin[p]
	// is the index of arc p's reverse within the neighbor range of arc
	// p's head, so an edge is removed by scanning one endpoint's range.
	off  []int64
	nbr  []int32
	twin []int32
	deg  []int32

	// parent is the spanning-tree witness (parent[root] == -1). An
	// edge (u,v) is a tree edge iff parent[u] == v or parent[v] == u.
	parent []int32

	// BFS scratch: stamp holds per-vertex visit epochs (two fresh
	// epochs per bidirectional search, one per side), queues are
	// reused frontier storage, and pred[y] is the vertex whose
	// expansion first reached y in the latest search (bounded or full).
	stamp  []uint64
	epoch  uint64
	queueA []int32
	queueB []int32
	pred   []int32

	// path holds the connecting paths the bounded searches of the
	// current proposal found, one per removed tree edge t, each running
	// t.U … t.V: the i-th removed edge's path ends at pathEnd[i] and
	// starts where the previous one ended (empty for a non-tree edge).
	// pathsSaved is false when a search fell through to the full BFS.
	path       []int32
	pathEnd    [2]int
	pathsSaved bool

	// bound and recheckEvery are defaultBound/defaultRecheckEvery;
	// tests shrink them to force the slow paths.
	bound        int
	recheckEvery int64
	accepted     int64

	stats Stats
}

// NewChecker returns an unbound checker with default heuristics.
func NewChecker() *Checker {
	return &Checker{bound: defaultBound, recheckEvery: defaultRecheckEvery}
}

// Bind (re)builds the checker's adjacency and witness tree for el,
// reusing buffers when capacities allow, and resets the outcome
// counters. It errors when el is not a connected simple graph (a
// self-loop, a parallel edge or more than one component) — the
// connected chain's hard precondition (see Connect for the repair).
func (c *Checker) Bind(el *graph.EdgeList) error {
	n := el.NumVertices
	c.n = n
	m := len(el.Edges)
	if cap(c.off) < n+1 {
		c.off = make([]int64, n+1)
	}
	c.off = c.off[:n+1]
	if cap(c.deg) < n {
		c.deg = make([]int32, n)
		c.parent = make([]int32, n)
		c.pred = make([]int32, n)
		c.stamp = make([]uint64, n)
		c.epoch = 0
		// A BFS queue holds each vertex at most once, and each saved
		// path holds distinct vertices; sizing them here keeps
		// SwapKeepsConnected allocation-free.
		c.queueA = make([]int32, 0, n)
		c.queueB = make([]int32, 0, n)
		c.path = make([]int32, 0, 2*n)
	}
	c.deg = c.deg[:n]
	c.parent = c.parent[:n]
	c.pred = c.pred[:n]
	c.stamp = c.stamp[:n]
	clear(c.deg)
	for _, e := range el.Edges {
		if e.IsLoop() {
			return fmt.Errorf("connected: input has self-loop %v; the connected chain runs on simple graphs only", e)
		}
		c.deg[e.U]++
		c.deg[e.V]++
	}
	c.off[0] = 0
	for v := 0; v < n; v++ {
		c.off[v+1] = c.off[v] + int64(c.deg[v])
	}
	if cap(c.nbr) < 2*m {
		c.nbr = make([]int32, 2*m)
		c.twin = make([]int32, 2*m)
	}
	c.nbr = c.nbr[:2*m]
	c.twin = c.twin[:2*m]
	clear(c.deg)
	for _, e := range el.Edges {
		c.addEdge(e)
	}
	// A parallel edge repeats a neighbor within one range: stamp each
	// range's neighbors with a fresh epoch.
	for v := 0; v < n; v++ {
		c.epoch++
		for _, w := range c.nbr[c.off[v] : c.off[v]+int64(c.deg[v])] {
			if c.stamp[w] == c.epoch {
				return fmt.Errorf("connected: input has parallel edges between %d and %d; the connected chain runs on simple graphs only", v, w)
			}
			c.stamp[w] = c.epoch
		}
	}
	c.accepted = 0
	c.stats = Stats{}
	reached := c.fullReach()
	c.parent, c.pred = c.pred, c.parent
	if reached < n {
		return fmt.Errorf("connected: input graph is disconnected (%d of %d vertices reachable from 0); repair it with connected.Connect first", reached, n)
	}
	return nil
}

// StatsSnapshot returns the outcome counters accumulated since Bind.
func (c *Checker) StatsSnapshot() Stats { return c.stats }

// SetBound overrides the bounded-search visit budget (tests use tiny
// budgets to force the full-BFS fallback). Values < 2 behave as 2.
func (c *Checker) SetBound(b int) {
	if b < 2 {
		b = 2
	}
	c.bound = b
}

// SetRecheckEvery overrides the periodic full-recheck interval; <= 0
// disables the recheck.
func (c *Checker) SetRecheckEvery(k int64) { c.recheckEvery = k }

// Connected runs one full BFS and reports global connectivity (empty
// graphs and n <= 1 are trivially connected).
func (c *Checker) Connected() bool {
	c.stats.FullChecks++
	return c.fullReach() == c.n
}

// witnessIntact reports the fast-path condition: neither removed edge
// is a witness tree edge, so the cached spanning tree survives the swap
// untouched and the graph stays connected with no traversal.
//
//nullgraph:hotpath
func (c *Checker) witnessIntact(e, f graph.Edge) bool {
	p := c.parent
	if p[e.U] == e.V || p[e.V] == e.U {
		return false
	}
	if p[f.U] == f.V || p[f.V] == f.U {
		return false
	}
	return true
}

// HasEdge reports whether e is a current edge of the checker's graph.
// It scans the neighbor range of e's lower-degree endpoint.
//
//nullgraph:hotpath
func (c *Checker) HasEdge(e graph.Edge) bool {
	_, _, i := c.find(e)
	return i >= 0
}

// find returns e's lower-degree endpoint u, its other endpoint v and
// the index of v within u's neighbor range, or -1 when e is absent.
//
//nullgraph:hotpath
func (c *Checker) find(e graph.Edge) (u, v, i int32) {
	u, v = e.U, e.V
	if c.deg[v] < c.deg[u] {
		u, v = v, u
	}
	base := c.off[u]
	for k, w := range c.nbr[base : base+int64(c.deg[u])] {
		if w == v {
			return u, v, int32(k)
		}
	}
	return u, v, -1
}

// Outcomes of certify.
const (
	// certified: g and h join the fragments, and the witness is
	// repaired.
	certified = iota
	// searchOne: both removed edges are tree edges and g and h rewire
	// them P–R + Q–Q, so the search for e alone decides.
	searchOne
	// searchEach: search for every removed tree edge (one tree edge
	// removed, or a labelling walk passed the search budget).
	searchEach
)

// SwapKeepsConnected decides the proposed swap (remove e and f, add g
// and h) and, when it keeps the graph connected, applies it to the
// checker's adjacency. Preconditions (the swap engine's proposal
// filter guarantees them): e and f are current edges at distinct
// positions, {g, h} is an endpoint rewiring of {e, f}, and neither g
// nor h is a self-loop or a duplicate of an existing edge.
func (c *Checker) SwapKeepsConnected(e, f, g, h graph.Edge) bool {
	c.stats.Proposals++
	if c.witnessIntact(e, f) {
		c.stats.FastPathHits++
		c.apply(e, f, g, h)
		c.maybeRecheck()
		return true
	}
	// A removed edge is a tree edge: apply tentatively and verify.
	c.apply(e, f, g, h)
	cert := c.certify(e, f, g, h)
	if cert == certified {
		c.maybeRecheck()
		return true
	}
	if c.stillConnected(e, f, cert == searchOne) {
		if !c.repairWitness(e, f, g, h) {
			// Rebuild. A full BFS that settled the verdict has already
			// left a BFS tree of this graph in pred.
			c.stats.WitnessRebuilds++
			if c.pathsSaved {
				c.fullReach()
			}
			c.parent, c.pred = c.pred, c.parent
		}
		c.maybeRecheck()
		return true
	}
	c.apply(g, h, e, f) // roll back
	c.stats.RejectedDisconnecting++
	return false
}

// certify tries to prove without a search that the applied swap kept
// the graph connected, and on success repairs the witness. Removing the
// tree edges among e and f from the witness leaves fragments, each
// still connected by its surviving tree edges: the root's (label 0) and
// the subtree of each removed edge's child (labels 1 and 2). The new
// graph is connected when g and h join the fragments into one, and then
// the witness minus its removed edges plus the joining edges is a
// spanning tree of it. With one tree edge removed, g or h must cross
// the cut. With two, {g, h} rewires the endpoints of {e, f}, which lie
// in fragments {P, Q, Q, R}; g and h span all three exactly when each
// joins two different fragments; otherwise one of them joins Q to Q
// and the other P to R. certify returns certified, or, having changed
// nothing, searchOne for that P–R + Q–Q miss and searchEach when one
// tree edge was removed or a labelling walk passed the search budget.
//
//nullgraph:hotpath
func (c *Checker) certify(e, f, g, h graph.Edge) int {
	a, b := c.treeChild(e), c.treeChild(f)
	if a < 0 || b < 0 {
		if c.hangCrossing(max(a, b), g, h) > 0 {
			return certified
		}
		return searchEach
	}
	lg := [2]int{c.fragment(g.U, a, b), c.fragment(g.V, a, b)}
	lh := [2]int{c.fragment(h.U, a, b), c.fragment(h.V, a, b)}
	if min(lg[0], lg[1], lh[0], lh[1]) < 0 {
		return searchEach
	}
	if lg[0] == lg[1] || lh[0] == lh[1] {
		return searchOne
	}
	// The fragments form a path through g and h, and at least one of
	// them joins a subtree fragment k to the root's: hang k through that
	// edge and the other subtree fragment through the other one.
	if lg[0] != 0 && lg[1] != 0 {
		g, h, lg, lh = h, g, lh, lg
	}
	child := [3]int32{-1, a, b}
	k := lg[0] + lg[1]
	c.hang(g, lg, k, child[k])
	c.hang(h, lh, 3-k, child[3-k])
	return certified
}

// treeChild returns the child endpoint of t when t is a witness tree
// edge, and -1 otherwise.
//
//nullgraph:hotpath
func (c *Checker) treeChild(t graph.Edge) int32 {
	switch {
	case c.parent[t.U] == t.V:
		return t.U
	case c.parent[t.V] == t.U:
		return t.V
	}
	return -1
}

// stillConnected verifies post-swap connectivity given that at least
// one removed edge was a witness tree edge. The surviving tree edges
// keep each tree fragment internally connected, so reconnecting every
// removed tree edge's endpoint pair re-links the fragments along the
// old tree topology (see the package doc); any pair that fails to
// reconnect is a proven disconnection. With one set, e and f are tree
// edges rewired P–R + Q–Q, and e's endpoint pair (Q and P or R)
// reconnects exactly when Q reaches P ∪ R, so e's search decides
// alone. Each conclusive search saves its connecting path for
// repairWitness.
func (c *Checker) stillConnected(e, f graph.Edge, one bool) bool {
	c.path = c.path[:0]
	c.pathsSaved = true
	for i, t := range [2]graph.Edge{e, f} {
		c.pathEnd[i] = len(c.path)
		if c.treeChild(t) < 0 || (one && i == 1) {
			continue // no fragment boundary here, or e's search decided
		}
		switch c.boundedReconnect(t.U, t.V) {
		case -1:
			return false
		case 0:
			// Inconclusive: one full BFS settles everything at once.
			c.stats.FullChecks++
			c.pathsSaved = false
			return c.fullReach() == c.n
		}
		c.pathEnd[i] = len(c.path)
	}
	return true
}

// boundedReconnect runs a bounded bidirectional BFS between u and v in
// the current adjacency: +1 means connected (frontiers met), -1 means
// disconnected (one side's component was exhausted without meeting),
// 0 means the visit budget ran out while both frontiers were alive.
func (c *Checker) boundedReconnect(u, v int32) int {
	c.stats.BoundedChecks++
	c.epoch += 2
	ea, eb := c.epoch-1, c.epoch // side stamps; meeting = seeing the other's
	c.queueA = append(c.queueA[:0], u)
	c.queueB = append(c.queueB[:0], v)
	c.stamp[u] = ea
	c.stamp[v] = eb
	headA, headB := 0, 0
	visited := 2
	for headA < len(c.queueA) && headB < len(c.queueB) {
		if visited > c.bound {
			return 0
		}
		// Expand one vertex from the smaller live frontier; connectivity
		// needs no level discipline, only exhaustive exploration.
		if len(c.queueA)-headA <= len(c.queueB)-headB {
			x := c.queueA[headA]
			headA++
			for _, y := range c.nbr[c.off[x] : c.off[x]+int64(c.deg[x])] {
				if c.stamp[y] == eb {
					c.stats.BoundedConclusive++
					c.savePath(u, x, y, v)
					return 1
				}
				if c.stamp[y] != ea {
					c.stamp[y] = ea
					c.pred[y] = x
					c.queueA = append(c.queueA, y)
					visited++
				}
			}
		} else {
			x := c.queueB[headB]
			headB++
			for _, y := range c.nbr[c.off[x] : c.off[x]+int64(c.deg[x])] {
				if c.stamp[y] == ea {
					c.stats.BoundedConclusive++
					c.savePath(u, y, x, v)
					return 1
				}
				if c.stamp[y] != eb {
					c.stamp[y] = eb
					c.pred[y] = x
					c.queueB = append(c.queueB, y)
					visited++
				}
			}
		}
	}
	// One frontier drained: that side's entire component is explored
	// and never met the other endpoint.
	c.stats.BoundedConclusive++
	return -1
}

// savePath appends the path u … a, b … v to c.path, where the meeting
// edge (a, b) joins u's side (a) to v's side (b) and pred leads each
// side's vertices back to its start.
func (c *Checker) savePath(u, a, b, v int32) {
	start := len(c.path)
	for w := a; ; w = c.pred[w] {
		c.path = append(c.path, w)
		if w == u {
			break
		}
	}
	slices.Reverse(c.path[start:])
	for w := b; ; w = c.pred[w] {
		c.path = append(c.path, w)
		if w == v {
			break
		}
	}
}

// repairWitness restores the witness after an accepted swap that
// removed tree edges (e, then f, whichever are tree edges), by
// re-attaching each detached subtree through an edge of the new graph.
// It reports false when the caller must rebuild the witness instead:
// a search fell through to the full BFS and saved no path, or a
// subtree-membership walk ran past the search budget.
//
// Each repair keeps the witness a spanning tree of the graph that
// still holds the edges not yet repaired, so the removed edges are
// taken one at a time: the new graph is connected, hence some edge of
// it crosses the cut that removing t leaves in the current tree, and
// the path the search found from t.U to t.V is one such candidate set.
// A P–R + Q–Q rewiring saved e's path alone. Say e joined Q to P and
// f joined Q to R. With f still in the tree, e's cut separates P from
// Q ∪ R, which of g and h only the P–R edge crosses, so e re-attaches
// through it; f's cut then separates Q from P ∪ R, and e's path, which
// runs from Q to P, crosses it.
func (c *Checker) repairWitness(e, f, g, h graph.Edge) bool {
	if !c.pathsSaved {
		return false
	}
	start := 0
	for i, t := range [2]graph.Edge{e, f} {
		p := c.path[start:c.pathEnd[i]]
		start = c.pathEnd[i]
		if len(p) == 0 {
			if i == 0 || c.treeChild(t) < 0 {
				continue // not a tree edge
			}
			p = c.path[:c.pathEnd[0]] // one search: f re-links on e's path
		}
		if !c.relink(t, g, h, p) {
			return false
		}
	}
	return true
}

// relink replaces tree edge t, absent from the graph, with a graph edge
// (x, y) that crosses the cut t leaves: x in the subtree of t's child
// endpoint, y outside it. It tries g and h first, then the edges of
// path (t.U … t.V, or another path whose ends that cut separates) in
// order, and hangs the subtree on y through x.
func (c *Checker) relink(t, g, h graph.Edge, path []int32) bool {
	child := c.treeChild(t)
	switch c.hangCrossing(child, g, h) {
	case 1:
		return true
	case -1:
		return false
	}
	prev := 0
	switch path[0] {
	case child:
		prev = 1
	case t.U, t.V: // t's parent end, outside the subtree
	default:
		if prev = c.fragment(path[0], child, -1); prev < 0 {
			return false
		}
	}
	for i := 1; i < len(path); i++ {
		side := c.fragment(path[i], child, -1)
		if side < 0 {
			return false
		}
		if side != prev {
			c.hang(graph.Edge{U: path[i-1], V: path[i]}, [2]int{prev, side}, 1, child)
			return true
		}
	}
	return false // unreachable while the witness is a spanning tree
}

// hangCrossing hangs the subtree of child through the first of g and h
// that crosses its cut and returns 1; it returns 0 when neither
// crosses, and -1 when a walk gave up first.
//
//nullgraph:hotpath
func (c *Checker) hangCrossing(child int32, g, h graph.Edge) int {
	for _, r := range [2]graph.Edge{g, h} {
		l := [2]int{c.fragment(r.U, child, -1), c.fragment(r.V, child, -1)}
		if l[0] < 0 || l[1] < 0 {
			return -1
		}
		if l[0] != l[1] {
			c.hang(r, l, 1, child)
			return 1
		}
	}
	return 0
}

// fragment walks parent pointers up from v and returns 1 when it
// reaches a first, 2 when it reaches b first (v lies in that vertex's
// subtree), 0 when it reaches the root, and -1 when it gives up after
// bound steps. Pass -1 for b to test membership in a's subtree alone.
//
//nullgraph:hotpath
func (c *Checker) fragment(v, a, b int32) int {
	for steps := 0; ; steps++ {
		switch v {
		case a:
			return 1
		case b:
			return 2
		}
		up := c.parent[v]
		if up < 0 {
			return 0
		}
		if steps == c.bound {
			return -1
		}
		v = up
	}
}

// hang re-attaches the subtree of child, the fragment labelled k, to
// the rest of the witness through graph edge r, whose endpoint labels
// are l: it re-roots the subtree at r's endpoint x inside it by
// reversing the parent pointers from x up to child, and hangs x under
// r's other endpoint.
//
//nullgraph:hotpath
func (c *Checker) hang(r graph.Edge, l [2]int, k int, child int32) {
	x, y := r.U, r.V
	if l[0] != k {
		x, y = r.V, r.U
	}
	prev, w := y, x
	for w != child {
		up := c.parent[w]
		c.parent[w] = prev
		prev, w = w, up
	}
	c.parent[child] = prev
}

// fullReach BFS-explores from vertex 0 and returns the number of
// vertices reached (n means connected; 0 for the empty graph). It
// leaves the BFS tree of the reached vertices in pred (pred[0] == -1),
// so a connected graph's witness can be rebuilt by swapping pred and
// parent.
func (c *Checker) fullReach() int {
	if c.n == 0 {
		return 0
	}
	c.epoch++
	e := c.epoch
	c.queueA = append(c.queueA[:0], 0)
	c.stamp[0] = e
	c.pred[0] = -1
	reached := 1
	for head := 0; head < len(c.queueA); head++ {
		x := c.queueA[head]
		for _, y := range c.nbr[c.off[x] : c.off[x]+int64(c.deg[x])] {
			if c.stamp[y] != e {
				c.stamp[y] = e
				c.pred[y] = x
				c.queueA = append(c.queueA, y)
				reached++
			}
		}
	}
	return reached
}

// maybeRecheck runs the periodic belt-and-braces full connectivity
// verification after an accepted swap.
func (c *Checker) maybeRecheck() {
	c.accepted++
	if c.recheckEvery <= 0 || c.accepted%c.recheckEvery != 0 {
		return
	}
	c.stats.FullRechecks++
	if c.fullReach() != c.n {
		panic("connected: periodic full recheck found a disconnected graph (checker invariant breached)")
	}
	if fault := c.witnessFault(); fault != "" {
		panic("connected: periodic full recheck: the witness " + fault + " (checker invariant breached)")
	}
}

// witnessFault returns how the parent array fails to be a spanning
// tree of the current adjacency, or "" when it is one: exactly one
// root, every (v, parent[v]) a current edge, and no cycle, so every
// walk up the parent pointers ends at the root.
func (c *Checker) witnessFault() string {
	if c.n == 0 {
		return ""
	}
	roots := 0
	for v, p := range c.parent {
		if p < 0 {
			roots++
		} else if !c.HasEdge(graph.Edge{U: int32(v), V: p}) {
			return fmt.Sprintf("holds (%d,%d), which is not an edge", v, p)
		}
	}
	if roots != 1 {
		return fmt.Sprintf("has %d roots", roots)
	}
	// Stamp vertices known to reach the root with done, and the
	// current walk with a fresh epoch: meeting the walk's own epoch
	// again is a cycle.
	c.epoch++
	done := c.epoch
	for v, p := range c.parent {
		if p < 0 {
			c.stamp[v] = done
		}
	}
	for v := range c.parent {
		c.epoch++
		w := int32(v)
		for c.stamp[w] != done {
			if c.stamp[w] == c.epoch {
				return fmt.Sprintf("has a cycle through vertex %d", w)
			}
			c.stamp[w] = c.epoch
			w = c.parent[w]
		}
		for w = int32(v); c.stamp[w] != done; w = c.parent[w] {
			c.stamp[w] = done
		}
	}
	return ""
}

// apply replaces edges e and f with g and h in the adjacency.
// Removals run before insertions so no vertex's neighbor count ever
// exceeds its (invariant) degree capacity.
func (c *Checker) apply(e, f, g, h graph.Edge) {
	c.removeEdge(e)
	c.removeEdge(f)
	c.addEdge(g)
	c.addEdge(h)
}

// addEdge appends e's two arcs, each pointing at the other.
func (c *Checker) addEdge(e graph.Edge) {
	u, v := e.U, e.V
	pu, pv := c.off[u]+int64(c.deg[u]), c.off[v]+int64(c.deg[v])
	c.nbr[pu], c.twin[pu] = v, c.deg[v]
	c.nbr[pv], c.twin[pv] = u, c.deg[u]
	c.deg[u]++
	c.deg[v]++
}

// removeEdge deletes e's two arcs: it finds e at its lower-degree end
// and follows the twin index to the other.
//
//nullgraph:hotpath
func (c *Checker) removeEdge(e graph.Edge) {
	u, v, i := c.find(e)
	if i < 0 {
		panic("connected: removeEdge on absent edge (checker out of sync with the edge list)")
	}
	j := c.twin[c.off[u]+int64(i)]
	c.removeArc(u, i)
	c.removeArc(v, j)
}

// removeArc deletes the arc at index i of u's neighbor range by moving
// the range's last arc into its place and pointing that arc's reverse
// at its new index.
//
//nullgraph:hotpath
func (c *Checker) removeArc(u, i int32) {
	c.deg[u]--
	last := c.off[u] + int64(c.deg[u])
	if p := c.off[u] + int64(i); p != last {
		w, tw := c.nbr[last], c.twin[last]
		c.nbr[p], c.twin[p] = w, tw
		c.twin[c.off[w]+int64(tw)] = i
	}
}
