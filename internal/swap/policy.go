// Per-space swap acceptance policies.
//
// The engine samples one cell of the Dutta–Fosdick–Clauset space
// matrix (graph.Space, arXiv:2105.12120), or simple digraphs. The
// cells split into two mechanically different regimes, and the
// directed chain is one more rule of the first:
//
//   - Stub-labeled cells (and simple graphs, where stub- and
//     vertex-labeled uniformity coincide) keep the paper's parallel
//     kernel: permute, propose adjacent disjoint pairs, accept by a
//     per-space rejection rule. No Metropolis–Hastings correction is
//     needed — in the stub-labeled target each graph is weighted by
//     its number of stub matchings, and the proposal degeneracies of
//     the pair-and-coin move (two coins collapsing onto one outcome
//     exactly when a loop or parallel pair is involved) cancel those
//     weights, so plain rejection of out-of-space proposals is the
//     correct chain: simple rejects loops and duplicates, loopy-stub
//     rejects duplicates only, multigraph-stub accepts everything.
//
//   - Vertex-labeled loopy/multigraph cells target the uniform
//     distribution over graphs, which the pair-and-coin proposal does
//     NOT sample unadjusted (it over-proposes moves out of states
//     with parallel edges and loops). These run a serial exact
//     Metropolis–Hastings sweep with the acceptance ratio
//
//     α = min(1, (N_b · c_b) / (N_f · c_f))
//
//     where N_f is the number of edge-instance pairs realizing the
//     forward proposal (w_e·w_f for distinct keys, w(w−1)/2 for two
//     instances of one key), N_b the same count for the reverse move
//     evaluated in the proposed state, and c_f/c_b ∈ {1, 2} count the
//     coin degeneracy — 2 exactly when both coin pairings produce the
//     same outcome. For a non-identity move the added key pair is
//     disjoint from the removed key pair (sharing one key forces
//     sharing both), so the reverse-move counts are the current
//     multiplicities plus the instances the move itself adds, and the
//     move's key quadruple is unique — making the per-move ratio the
//     exact proposal ratio. Multiplicities come from a graph.Multiset,
//     so this path is serial and map-backed; it is intentionally NOT
//     //nullgraph:hotpath (the parallel kernels are: the sweep,
//     register and triangle bodies in swap.go, rejectProbed and
//     rewirePair).
//
//   - The directed chain (acceptDirected) runs the parallel kernel on
//     arcs, with the two "certain considerations" the paper defers to
//     [14], [15]. A pair of arcs (u→v), (x→y) has exactly one legal
//     exchange, (u→y), (x→v) — the other would move degree between in
//     and out sides — so the pairing coin becomes a lazy coin: each
//     pair proposes its exchange with probability 1/2. Without it the
//     sweep applies every legal exchange of a pairing in lockstep, and
//     on small arc sets the chain makes only composite moves (the
//     4-vertex out=in=1 space then splits into four communicating
//     classes, which internal/statcheck catches). And pair exchanges
//     alone do not connect the simple-digraph space (the two
//     orientations of a directed 3-cycle have no legal pair move
//     between them), so each iteration also reverses disjoint arc
//     triples that form a directed triangle, the classic second move
//     of directed switch chains (Rao et al.; Erdős–Miklós–Toroczkai).
//     The table holds ordered arc keys.
package swap

import (
	"nullgraph/internal/graph"
	"nullgraph/internal/hashtable"
	"nullgraph/internal/obs"
	"nullgraph/internal/rng"
)

// acceptRule is the parallel kernel's acceptance rule — a stub-labeled
// cell's, or the directed chain's — fixed when the engine is built.
// The parallel sweep branches on it directly: the branch is
// loop-invariant and well predicted, where a per-proposal indirect
// call through a policy func value was neither.
type acceptRule uint8

const (
	// acceptSimple is the paper's simple-space rule: commit iff neither
	// proposed edge is a self-loop and neither is already present
	// (TestAndSet registers the probes, suppressing re-proposals this
	// iteration — see the package doc for the short-circuit ordering).
	acceptSimple acceptRule = iota
	// acceptLoopyStub is the loopy-stub rule: loops are legal states, so
	// only duplicate creation is rejected. Loop keys pack and probe like
	// any other key, and a proposal that would create a duplicated loop
	// (g and h the same loop) is caught by the second TestAndSet seeing
	// the first's registration.
	acceptLoopyStub
	// acceptAll is the multigraph-stub rule: every proposal commits, so
	// the cell has no table at all.
	acceptAll
	// acceptDirected is the simple-digraph rule: behind the lazy coin,
	// commit the pair's one legal exchange iff neither new arc is a
	// self-loop or already present, keyed by ordered arcs; a triangle
	// reversal phase follows the sweep (see the file doc).
	acceptDirected
)

// arcKey packs e as the ordered arc U→V; unlike Edge.Key it does not
// canonicalize, so (u,v) and (v,u) are distinct keys.
//
//nullgraph:hotpath
func arcKey(e graph.Edge) uint64 {
	return uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
}

// rejectProbed is the duplicate test of the table-backed rules with
// instrumentation: it probes keys gk and then hk like the plain path's
// two TestAndSet calls, files both probe lengths, and attributes a
// rejection to the first or the partner edge. The sweep's plain path
// admits a whole sub-block with one TestAndSetPairs call instead.
//
//nullgraph:hotpath
func rejectProbed(wtr *hashtable.Writer, cell *obs.Counters, gk, hk uint64) bool {
	present, probes := wtr.TestAndSetProbed(gk)
	cell.RecordProbe(probes)
	if present {
		cell.RejectDuplicate++
		return true
	}
	present, probes = wtr.TestAndSetProbed(hk)
	cell.RecordProbe(probes)
	if present {
		// g stays registered, as on the plain path.
		cell.RejectPartnerDuplicate++
		return true
	}
	return false
}

// sameKeyPair reports multiset equality of the two canonical-key
// pairs {a1, a2} and {b1, b2}.
func sameKeyPair(a1, a2, b1, b2 uint64) bool {
	return (a1 == b1 && a2 == b2) || (a1 == b2 && a2 == b1)
}

// stepVertex runs one serial Metropolis–Hastings sweep for the
// vertex-labeled loopy/multigraph cells: ⌊m/2⌋ proposals, each picking
// a uniform pair of distinct edge positions and a fair coin, accepted
// with the exact ratio derived in the file doc. Serial because the
// acceptance ratio reads live multiplicities — the parallel kernel's
// iteration-frozen hash table cannot answer those — and bit-
// reproducible for any Workers setting as a consequence.
func (eng *Engine) stepVertex() (IterStats, bool) {
	m := len(eng.el.Edges)
	it := eng.iteration
	eng.iteration++
	if m < 2 {
		return IterStats{}, eng.stop.Stopped()
	}
	if eng.stop.Stopped() {
		return IterStats{}, true
	}
	src := rng.New(sweepSeedFor(eng.opt.Seed, it))
	edges := eng.el.Edges
	ms := eng.ms
	stop := eng.stop
	swapped := eng.swapped
	allowMulti := eng.opt.Space.AllowsMulti()
	pairs := m / 2
	stats := IterStats{Attempts: int64(pairs)}
	var local, newly int64
	for k := 0; k < pairs; k++ {
		if stop != nil && k&2047 == 0 && stop.Stopped() {
			// Committed proposals are individually valid states of the
			// space, so a partial sweep leaves the edge list (and ms)
			// consistent; statistics for the interrupted iteration are
			// dropped, as in the parallel step.
			return IterStats{}, true
		}
		i := int(src.Uint64n(uint64(m)))
		j := int(src.Uint64n(uint64(m)))
		if i == j {
			continue
		}
		e, f := edges[i], edges[j]
		coin := src.Bool()
		g, h := rewirePair(e, f, coin)
		og, oh := rewirePair(e, f, !coin)
		ek, fk := e.Key(), f.Key()
		gk, hk := g.Key(), h.Key()
		if sameKeyPair(gk, hk, ek, fk) {
			// Identity outcome: the proposed state is the current one.
			continue
		}
		if !allowMulti && (gk == hk || ms.Count(gk) > 0 || ms.Count(hk) > 0) {
			// Out of space: the move would create a parallel pair (or a
			// duplicated loop, which counts as one).
			continue
		}
		// Forward realization count: instance pairs with keys {ek, fk},
		// times the coin degeneracy (2 iff both coins give this outcome).
		var nf float64
		if ek == fk {
			w := float64(ms.Count(ek))
			nf = w * (w - 1) / 2
		} else {
			nf = float64(ms.Count(ek)) * float64(ms.Count(fk))
		}
		if sameKeyPair(gk, hk, og.Key(), oh.Key()) {
			nf *= 2
		}
		// Backward realization count, evaluated in the proposed state:
		// the new keys are disjoint from {ek, fk}, so their multiplicity
		// there is the current one plus what the move adds. The reverse
		// pair's two coin outcomes are exactly {e, f} and this move's
		// other outcome, so c_b = 2 iff the other outcome is an identity.
		var nb float64
		if gk == hk {
			w := float64(ms.Count(gk))
			nb = (w + 2) * (w + 1) / 2
		} else {
			nb = float64(ms.Count(gk)+1) * float64(ms.Count(hk)+1)
		}
		if sameKeyPair(og.Key(), oh.Key(), ek, fk) {
			nb *= 2
		}
		if nb < nf && src.Float64() >= nb/nf {
			continue
		}
		ms.RemoveEdge(e)
		ms.RemoveEdge(f)
		ms.AddEdge(g)
		ms.AddEdge(h)
		edges[i], edges[j] = g, h
		if swapped != nil {
			newly += markSwapped(swapped, i) + markSwapped(swapped, j)
		}
		local++
	}
	stats.Successes = local
	eng.swappedCount += newly
	if swapped != nil {
		stats.EverSwapped = eng.EverSwappedFraction()
	}
	if eng.rec != nil {
		eng.rec.FlushIteration(stats.Attempts, stats.Successes, stats.EverSwapped)
	}
	return stats, false
}

// rewirePair returns the coin's endpoint pairing of (e, f); both
// pairings preserve all four endpoint degrees.
//
//nullgraph:hotpath
func rewirePair(e, f graph.Edge, coin bool) (graph.Edge, graph.Edge) {
	if coin {
		return graph.Edge{U: e.U, V: f.U}, graph.Edge{U: e.V, V: f.V}
	}
	return graph.Edge{U: e.U, V: f.V}, graph.Edge{U: e.V, V: f.U}
}
