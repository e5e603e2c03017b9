package nullgraph

import (
	"context"
	"fmt"
	"io"

	"nullgraph/internal/core"
	"nullgraph/internal/directed"
	"nullgraph/internal/par"
)

// Directed graph support — the extrapolation the paper points to via
// Durak et al. [14] and Erdős–Miklós–Toroczkai [15]. The directed swap
// chain adds the triangle-reversal move required for ergodicity (pair
// exchanges alone cannot reorient a directed 3-cycle).

// Arc is a directed edge From → To.
type Arc = directed.Arc

// Digraph is an arc-centric directed graph.
type Digraph = directed.ArcList

// JointDistribution is the {(out, in), count} directed analog of a
// degree distribution.
type JointDistribution = directed.JointDistribution

// NewDigraph wraps an arc slice with an explicit vertex count,
// validating endpoint ranges.
func NewDigraph(arcs []Arc, numVertices int) *Digraph {
	return directed.NewArcList(arcs, numVertices)
}

// JointFromDegrees builds the joint distribution of per-vertex out/in
// degree sequences.
func JointFromDegrees(out, in []int64) *JointDistribution {
	return directed.FromJointDegrees(out, in)
}

// JointOf extracts the joint distribution of an existing digraph.
func JointOf(g *Digraph, workers int) *JointDistribution {
	return directed.OfArcList(g, workers)
}

// DirectedResult is the output of GenerateDirected / ShuffleDirected.
type DirectedResult struct {
	Graph          *Digraph
	SwapIterations []directed.SwapIterStats
	Mixed          bool
	// Stop records how the swap phase ended; with Options.StopPolicy it
	// carries the adaptive monitor's outcome and checkpoint trail. The
	// directed chain always monitors the swap success rate (no graph
	// statistic is wired), whatever StopPolicy.Statistic says.
	Stop *StopReport
	// Report holds the chain-health report when Options.CollectReport
	// was set, nil otherwise: edge-skip spaces (one per ordered class
	// pair), swap iterations, phase times and the stop decision.
	Report *RunReport
}

// runDirected is oneShot for the directed entry points. It rejects the
// Options the directed chain does not implement rather than silently
// dropping them: it samples simple digraphs only (no other Space) with
// no connectivity constraint, and RefineProbabilities targets the
// undirected class matrix.
func runDirected(ctx context.Context, opt Options, g *Digraph, sample func(*core.Engine, *par.Stop) (*core.Result, error)) (*DirectedResult, error) {
	if err := ctxEntryErr(ctx); err != nil {
		return nil, err
	}
	switch {
	case opt.Space != SpaceSimple && opt.Space != SpaceSimpleVertex:
		return nil, fmt.Errorf("nullgraph: directed generation samples simple digraphs only, not Space %v", opt.Space)
	case opt.Connected:
		return nil, fmt.Errorf("nullgraph: Connected is not supported for directed generation")
	case opt.RefineProbabilities > 0:
		return nil, fmt.Errorf("nullgraph: RefineProbabilities is not supported for directed generation")
	}
	res, err := oneShot(ctx, opt, sample)
	if err != nil {
		return nil, err
	}
	if g == nil {
		g = &Digraph{Arcs: directed.EdgesAsArcs(res.Graph.Edges), NumVertices: res.Graph.NumVertices}
	}
	return &DirectedResult{Graph: g, SwapIterations: res.SwapIterations, Mixed: res.Mixed, Stop: res.Stop, Report: res.Report}, nil
}

// GenerateDirected draws a uniformly random simple digraph matching the
// joint (out, in) distribution in expectation: directed probability
// heuristic → edge-skipping over ordered class pairs → double-arc swaps
// with triangle reversals. Options the directed chain does not
// implement (a non-simple Space, Connected, RefineProbabilities) are
// rejected with an error; CollectReport attaches a RunReport to the
// result. Equivalent to GenerateDirectedContext with a background
// context.
func GenerateDirected(dist *JointDistribution, opt Options) (*DirectedResult, error) {
	return GenerateDirectedContext(context.Background(), dist, opt)
}

// GenerateDirectedContext is GenerateDirected honoring ctx:
// cancellation is cooperative with bounded latency in every phase
// (edge-skipping and swapping poll every few thousand indices), the
// partial digraph is abandoned, and ctx.Err() is returned. A ctx
// already canceled on entry returns before any work.
func GenerateDirectedContext(ctx context.Context, dist *JointDistribution, opt Options) (*DirectedResult, error) {
	return runDirected(ctx, opt, nil, func(e *core.Engine, stop *par.Stop) (*core.Result, error) {
		return e.GenerateDirectedSample(dist, 0, stop)
	})
}

// ShuffleDirected mixes an existing digraph in place, preserving every
// vertex's in- and out-degree. The digraph must be non-nil with
// in-range endpoints — the same validation as the undirected Shuffle —
// and unsupported Options (a non-simple Space, Connected,
// RefineProbabilities) are rejected with an error. Equivalent to
// ShuffleDirectedContext with a background context.
func ShuffleDirected(g *Digraph, opt Options) (*DirectedResult, error) {
	return ShuffleDirectedContext(context.Background(), g, opt)
}

// ShuffleDirectedContext is ShuffleDirected honoring ctx. On
// cancellation it returns ctx.Err() with g left valid — every
// vertex's in- and out-degree preserved — but under-mixed. A ctx
// already canceled on entry leaves g untouched.
func ShuffleDirectedContext(ctx context.Context, g *Digraph, opt Options) (*DirectedResult, error) {
	return runDirected(ctx, opt, g, func(e *core.Engine, stop *par.Stop) (*core.Result, error) {
		return e.ShuffleDirectedSample(g, 0, stop)
	})
}

// KleitmanWang deterministically realizes a joint degree distribution
// as a simple digraph (directed Havel-Hakimi); an error reports a
// non-realizable sequence.
func KleitmanWang(dist *JointDistribution) (*Digraph, error) {
	return directed.KleitmanWang(dist)
}

// ReadDigraph parses a text arc list ("from to" per line, '#'/'%'
// comments).
func ReadDigraph(r io.Reader) (*Digraph, error) { return directed.ReadArcListText(r) }

// WriteDigraph writes a text arc list preserving orientation and order.
func WriteDigraph(w io.Writer, g *Digraph) error { return directed.WriteArcListText(w, g) }

// ReadJointDistribution parses "out in count" lines.
func ReadJointDistribution(r io.Reader) (*JointDistribution, error) {
	return directed.ReadJoint(r)
}

// WriteJointDistribution writes "out in count" lines.
func WriteJointDistribution(w io.Writer, d *JointDistribution) error {
	return directed.WriteJoint(w, d)
}
