package nullgraph

import (
	"context"
	"fmt"
	"io"

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
}

// directedOptions maps the shared Options onto the directed pipeline,
// rejecting fields the directed chain does not implement rather than
// silently dropping them: it samples simple digraphs only (no other
// Space) with no connectivity constraint, RefineProbabilities targets
// the undirected class matrix, and CollectReport's recorder instruments
// only the undirected engines.
func directedOptions(opt Options) (directed.Options, error) {
	if opt.Space != SpaceSimple && opt.Space != SpaceSimpleVertex {
		return directed.Options{}, fmt.Errorf("nullgraph: directed generation samples simple digraphs only, not Space %v", opt.Space)
	}
	if opt.Connected {
		return directed.Options{}, fmt.Errorf("nullgraph: Connected is not supported for directed generation")
	}
	if opt.RefineProbabilities > 0 {
		return directed.Options{}, fmt.Errorf("nullgraph: RefineProbabilities is not supported for directed generation")
	}
	if opt.CollectReport {
		return directed.Options{}, fmt.Errorf("nullgraph: CollectReport is not supported for directed generation")
	}
	return directed.Options{
		Workers:         opt.Workers,
		Seed:            opt.Seed,
		SwapIterations:  opt.SwapIterations,
		MixUntilSwapped: opt.MixUntilSwapped,
		StopPolicy:      opt.StopPolicy,
	}, nil
}

// GenerateDirected draws a uniformly random simple digraph matching the
// joint (out, in) distribution in expectation: directed probability
// heuristic → directed edge-skipping → double-arc swaps with triangle
// reversals. Options the directed chain does not implement (a
// non-simple Space, Connected, RefineProbabilities, CollectReport) are
// rejected with an error.
// Equivalent to GenerateDirectedContext with a background context.
func GenerateDirected(dist *JointDistribution, opt Options) (*DirectedResult, error) {
	return GenerateDirectedContext(context.Background(), dist, opt)
}

// GenerateDirectedContext is GenerateDirected honoring ctx:
// cancellation is cooperative (between phases, and inside the swap
// phase every few thousand arcs), the partial digraph is abandoned,
// and ctx.Err() is returned. A ctx already canceled on entry returns
// before any work.
func GenerateDirectedContext(ctx context.Context, dist *JointDistribution, opt Options) (*DirectedResult, error) {
	if err := ctxEntryErr(ctx); err != nil {
		return nil, err
	}
	dopt, err := directedOptions(opt)
	if err != nil {
		return nil, err
	}
	stop, release := par.WatchContext(ctx)
	defer release()
	dopt.Stop = stop
	res, err := directed.Generate(dist, dopt)
	if err != nil {
		return nil, ctxError(ctx, err)
	}
	return &DirectedResult{Graph: res.Graph, SwapIterations: res.Swaps.PerIteration, Mixed: res.Mixed, Stop: res.Stop}, nil
}

// ShuffleDirected mixes an existing digraph in place, preserving every
// vertex's in- and out-degree. The digraph must be non-nil with
// in-range endpoints — the same validation as the undirected Shuffle —
// and unsupported Options (a non-simple Space, Connected,
// RefineProbabilities, CollectReport) are rejected with an error. Equivalent to ShuffleDirectedContext with a
// background context.
func ShuffleDirected(g *Digraph, opt Options) (*DirectedResult, error) {
	return ShuffleDirectedContext(context.Background(), g, opt)
}

// ShuffleDirectedContext is ShuffleDirected honoring ctx. On
// cancellation it returns ctx.Err() with g left valid — every
// vertex's in- and out-degree preserved — but under-mixed. A ctx
// already canceled on entry leaves g untouched.
func ShuffleDirectedContext(ctx context.Context, g *Digraph, opt Options) (*DirectedResult, error) {
	if err := ctxEntryErr(ctx); err != nil {
		return nil, err
	}
	dopt, err := directedOptions(opt)
	if err != nil {
		return nil, err
	}
	stop, release := par.WatchContext(ctx)
	defer release()
	dopt.Stop = stop
	res, err := directed.Shuffle(g, dopt)
	if err != nil {
		return nil, ctxError(ctx, err)
	}
	return &DirectedResult{Graph: res.Graph, SwapIterations: res.Swaps.PerIteration, Mixed: res.Mixed, Stop: res.Stop}, nil
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
