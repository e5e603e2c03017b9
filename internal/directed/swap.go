package directed

import (
	"unsafe"

	"nullgraph/internal/graph"
	"nullgraph/internal/par"
	"nullgraph/internal/swap"
)

// SwapOptions configures a directed swap run; fields mirror the
// undirected swap.Options, and the table probes linearly.
type SwapOptions struct {
	Iterations   int
	Workers      int
	Seed         uint64
	TrackSwapped bool
	OnIteration  func(iteration int, stats SwapIterStats)
	// Stop, when non-nil, is polled inside each phase's loops (every
	// few thousand indices) and between phases; a tripped flag ends the
	// run early with SwapResult.Stopped set, leaving the arc list valid
	// (joint degrees and simplicity preserved) but under-mixed.
	// Cancellation latency is bounded by a poll interval. Polling never
	// consumes randomness, so an untripped Stop changes nothing.
	Stop *par.Stop
}

// SwapIterStats, SwapResult and Stopper are the undirected chain's
// types: both chains run under the same loop, swap.Drive. A SwapResult
// carries Stopped when SwapOptions.Stop ended the run before its
// iteration budget.
type (
	SwapIterStats = swap.IterStats
	SwapResult    = swap.Result
	Stopper       = swap.Stopper
)

// SwapEngine is the directed analog of Algorithm III.1: lazy-coin pair
// exchanges plus directed-triangle reversals, the two "certain
// considerations" the paper defers to [14], [15] (see the swap
// package's policy.go for why each is needed). It runs on the one swap
// engine, swap.NewDirectedEngine, over a graph.EdgeList that views the
// arc slice in place, so callers read al.Arcs after every Step at no
// copying cost. Steady-state Steps do not allocate beyond the per-call
// workers of a parallel run. The engine owns no goroutines, so there is
// nothing to Close. al.Arcs must not be replaced or resized while the
// engine is live.
type SwapEngine struct {
	el  graph.EdgeList
	eng *swap.Engine
}

// NewSwapEngine prepares an engine that mutates al in place.
func NewSwapEngine(al *ArcList, opt SwapOptions) *SwapEngine {
	de := &SwapEngine{el: graph.EdgeList{Edges: ArcsAsEdges(al.Arcs), NumVertices: al.NumVertices}}
	de.eng = swap.NewDirectedEngine(&de.el, swap.Options{
		Workers:      opt.Workers,
		Seed:         opt.Seed,
		TrackSwapped: opt.TrackSwapped,
		OnIteration:  opt.OnIteration,
		Stop:         opt.Stop,
	})
	return de
}

// ArcsAsEdges views arcs as edges (From, To) = (U, V) without copying:
// Arc and graph.Edge are both a pair of int32s.
func ArcsAsEdges(arcs []Arc) []graph.Edge {
	if len(arcs) == 0 {
		return nil
	}
	return unsafe.Slice((*graph.Edge)(unsafe.Pointer(&arcs[0])), len(arcs))
}

// EdgesAsArcs is the inverse view of ArcsAsEdges: each edge (U, V) read
// as the arc U→V, without copying.
func EdgesAsArcs(edges []graph.Edge) []Arc {
	if len(edges) == 0 {
		return nil
	}
	return unsafe.Slice((*Arc)(unsafe.Pointer(&edges[0])), len(edges))
}

// EverSwappedFraction reports the mixing tracker (0 unless
// SwapOptions.TrackSwapped).
func (de *SwapEngine) EverSwappedFraction() float64 { return de.eng.EverSwappedFraction() }

// Step runs one full iteration: register all arcs, permute, propose the
// single legal exchange per adjacent pair, reverse disjoint directed
// triangles, clear the table.
func (de *SwapEngine) Step() SwapIterStats { return de.eng.Step() }

// Run drives the engine for up to maxIterations iterations, ending
// early when st (if non-nil) fires or SwapOptions.Stop trips. It returns
// the statistics and whether st ended the run.
func (de *SwapEngine) Run(maxIterations int, st Stopper) (SwapResult, bool) {
	return de.eng.Run(maxIterations, st)
}

// SwapArcs performs opt.Iterations directed double-arc swap iterations
// on al in place: a one-shot wrapper over a single-use SwapEngine.
func SwapArcs(al *ArcList, opt SwapOptions) SwapResult {
	res, _ := NewSwapEngine(al, opt).Run(opt.Iterations, nil)
	return res
}
