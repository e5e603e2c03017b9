// The serial connectivity-preserving chain for the simple cell
// (Options.Connected; Viger–Latapy, arXiv:cs/0502085).
//
// Why serial: the parallel kernel's per-iteration safety argument is
// local — each committed swap is individually a legal state transition
// against the iteration-frozen edge table. Connectivity is global:
// two swaps that each preserve connectivity on the current graph can
// jointly disconnect it (each can sever a bridge the other's path
// relied on), and no frozen per-iteration witness can arbitrate the
// interleaving without serializing the commits anyway. So the
// connected cell follows the vertex-MH precedent: a serial sweep of
// ⌊m/2⌋ proposals drawn as uniform ordered position pairs plus a fair
// coin, bit-reproducible for any Workers setting. Its only state beside
// the edge list is the checker's adjacency, which also answers the
// simplicity test, so the chain keeps no edge multiset.
//
// Why plain rejection samples uniformly: in the simple cell stub- and
// vertex-labeled uniformity coincide, the pair-and-coin proposal is
// symmetric between any two simple graphs, and restricting a
// symmetric-proposal chain to a subset (here: connected graphs) by
// rejecting moves that leave the subset preserves the uniform
// stationary distribution on the subset. Irreducibility over connected
// simple realizations of a degree sequence under connectivity-
// preserving double-edge swaps is Taylor's theorem (the result
// Viger–Latapy build on), and laziness (rejections) gives
// aperiodicity — so the chain converges to uniform over connected
// simple graphs, which the connected-uniformity statcheck gates verify
// against exact enumeration.
package swap

import (
	"nullgraph/internal/connected"
	"nullgraph/internal/rng"
)

// ConnectivityStats returns a snapshot of the connectivity checker's
// outcome counters (fast-path hits, bounded/full checks, rejected
// disconnecting proposals) accumulated since the last bind, or nil for
// engines without Options.Connected.
func (eng *Engine) ConnectivityStats() *connected.Stats {
	if eng.conn == nil {
		return nil
	}
	s := eng.conn.StatsSnapshot()
	return &s
}

// stepConnected runs one serial connectivity-preserving sweep: ⌊m/2⌋
// proposals, each accepted iff it keeps the graph simple (neither g
// nor h is in the checker's adjacency, which mirrors the edge list)
// and connected (checker hierarchy: witness fast path, cut
// certificate, bounded bidirectional BFS, full-BFS fallback). The
// checker applies an accepted swap to its adjacency itself.
func (eng *Engine) stepConnected() (IterStats, bool) {
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
	conn := eng.conn
	stop := eng.stop
	swapped := eng.swapped
	pairs := m / 2
	stats := IterStats{Attempts: int64(pairs)}
	var local, newly int64
	//nullgraph:cancelable
	for k := 0; k < pairs; k++ {
		if stop != nil && k&2047 == 0 && stop.Stopped() {
			// As in stepVertex: committed proposals are individually
			// valid connected states, so a partial sweep leaves the edge
			// list and the checker consistent; the interrupted
			// iteration's statistics are dropped.
			return IterStats{}, true
		}
		i := int(src.Uint64n(uint64(m)))
		j := int(src.Uint64n(uint64(m)))
		if i == j {
			continue
		}
		e, f := edges[i], edges[j]
		g, h := rewirePair(e, f, src.Bool())
		gk, hk := g.Key(), h.Key()
		if sameKeyPair(gk, hk, e.Key(), f.Key()) {
			// Identity outcome: the proposed state is the current one.
			continue
		}
		if g.IsLoop() || h.IsLoop() {
			continue
		}
		if gk == hk || conn.HasEdge(g) || conn.HasEdge(h) {
			// Would create a parallel pair: out of the simple cell.
			continue
		}
		if !conn.SwapKeepsConnected(e, f, g, h) {
			// Would disconnect: out of the connected subspace. The
			// checker already rolled its adjacency back.
			continue
		}
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
