// Package nullgraph generates large-scale simple uniformly-random null
// graph models in parallel, reproducing "Parallel Generation of Simple
// Null Graph Models" (Garbus, Brissette, Slota — IPPS 2020).
//
// The library solves two related problems:
//
//  1. Given an existing edge list, produce a uniformly random simple
//     graph with the same degree sequence — Shuffle, a parallel
//     Markov-chain Monte-Carlo double-edge swap process.
//  2. Given only a degree distribution, produce a uniformly random
//     simple graph matching it in expectation — Generate, which solves
//     for pairwise degree-class attachment probabilities, realizes them
//     with O(m) parallel edge-skipping, and mixes the result with
//     double-edge swaps.
//
// Baseline generators (the O(m) Chung-Lu multigraph model, the erased
// model, the Bernoulli edge-skipping model and Havel-Hakimi
// construction), LFR-like hierarchical community benchmarks, and the
// quality metrics used to compare them are exported alongside.
//
// All randomness is seed-driven: with Workers = 1 every entry point is
// bit-reproducible; with more workers, generation (edge-skipping,
// Chung-Lu draws, permutations) remains exactly reproducible, while the
// swap phase can differ across runs only when two workers concurrently
// propose the same new edge — a benign race the paper's OpenMP
// implementation shares, affecting which uniform sample you get but not
// its distribution or any invariant.
//
// Quick start:
//
//	dist, _ := nullgraph.PowerLawDistribution(100_000, 1, 1000, 2.1, 42)
//	res, _ := nullgraph.Generate(dist, nullgraph.Options{Seed: 42, SwapIterations: 10})
//	fmt.Println(res.Graph.NumEdges())
package nullgraph

import (
	"context"
	"fmt"
	"io"
	"time"

	"nullgraph/internal/chunglu"
	"nullgraph/internal/connected"
	"nullgraph/internal/converge"
	"nullgraph/internal/core"
	"nullgraph/internal/degseq"
	"nullgraph/internal/edgeskip"
	"nullgraph/internal/graph"
	"nullgraph/internal/havelhakimi"
	"nullgraph/internal/lfr"
	"nullgraph/internal/metrics"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
	"nullgraph/internal/simplify"
	"nullgraph/internal/swap"
)

// Edge is an undirected edge between two int32 vertex IDs.
type Edge = graph.Edge

// Graph is an edge-centric graph: a mutable edge list plus its vertex
// count. It is the representation every generator produces and the swap
// engine mutates.
type Graph = graph.EdgeList

// Simplicity reports a graph's self-loop and multi-edge content.
type Simplicity = graph.Simplicity

// Stats summarizes a graph like the paper's Table I.
type Stats = graph.Stats

// DegreeDistribution is the {D, N} input of generation-from-
// distribution: unique degrees ascending with positive counts.
type DegreeDistribution = degseq.Distribution

// QualityError is the triple of relative errors (edges, max degree,
// Gini) comparing a generated graph against its target distribution.
type QualityError = metrics.QualityError

// SwapStats reports one double-edge swap iteration.
type SwapStats = swap.IterStats

// Space selects the sampling-space cell the pipeline targets — one of
// the six {simple, loopy, multigraph} × {stub-labeled, vertex-labeled}
// null-model spaces of Fosdick et al. (arXiv:1608.00607). The zero
// value, SpaceSimple, is the paper's regime and keeps every entry point
// bit-identical to previous releases. See internal/graph for the cell
// semantics and internal/swap for the per-cell chains.
type Space = graph.Space

// The six sampling-space cells.
const (
	// SpaceSimple is the simple stub-labeled space — no self-loops, no
	// multi-edges — the paper's regime and the default. The simple
	// vertex-labeled cell is distributionally identical (every simple
	// graph carries the same ∏ d_v! stub labelings), so both spellings
	// run the same chain.
	SpaceSimple = graph.SimpleStub
	// SpaceSimpleVertex is the simple vertex-labeled cell; an alias
	// regime of SpaceSimple (see above).
	SpaceSimpleVertex = graph.SimpleVertex
	// SpaceLoopyStub allows self-loops (stub-labeled).
	SpaceLoopyStub = graph.LoopyStub
	// SpaceLoopyVertex allows self-loops (vertex-labeled; serial
	// Metropolis-Hastings chain).
	SpaceLoopyVertex = graph.LoopyVertex
	// SpaceMultigraphStub allows self-loops and multi-edges
	// (stub-labeled; the configuration model — every proposal accepts).
	SpaceMultigraphStub = graph.MultigraphStub
	// SpaceMultigraphVertex allows self-loops and multi-edges
	// (vertex-labeled; serial Metropolis-Hastings chain).
	SpaceMultigraphVertex = graph.MultigraphVertex
)

// ParseSpace resolves a space's command-line spelling ("simple",
// "loopy-stub", "multigraph-vertex", ...). The empty string is
// SpaceSimple.
func ParseSpace(s string) (Space, error) { return graph.ParseSpace(s) }

// SpaceNames lists the canonical spellings ParseSpace accepts, in cell
// order.
func SpaceNames() []string { return graph.SpaceNames() }

// ConnectivityStats reports the connected chain's check outcomes when
// Options.Connected is set (internal/connected): how many proposals
// each tier of the Viger–Latapy check hierarchy resolved — witness
// fast path, bounded bidirectional BFS, full BFS — and how many were
// rejected for disconnecting the graph. Proposals that the cut
// certificate settled fall in none of the tier counters.
type ConnectivityStats = connected.Stats

// SimplifyStats reports the targeted simplification pass Shuffle runs
// on non-simple input in a simple space (internal/simplify, after
// Sjöstrand arXiv:1904.06999): defect counts before and after, and the
// swap budget spent. Swaps <= InitialDefects always holds.
type SimplifyStats = simplify.Result

// RunReport is the serializable chain-health report collected when
// Options.CollectReport is set: per-iteration swap acceptance and
// rejection splits, hash-probe histograms, edge-skip sample-space
// accounting, phase wall times, and (schema v2) the stopping decision.
// See internal/obs for the schema.
type RunReport = obs.RunReport

// StopPolicy configures the adaptive mixing stopper: instead of a fixed
// iteration count, the swap chain monitors a cheap scalar statistic
// (degree assortativity by default) at geometrically spaced checkpoints
// and stops once a Geweke-style stationarity test passes with
// hysteresis, bounded below by Floor and above by Budget. The zero
// value picks sensible defaults for every field. See internal/converge
// for the diagnostic's design.
type StopPolicy = converge.Policy

// StopStatistic selects which scalar trace a StopPolicy monitors.
type StopStatistic = converge.Statistic

// Stop statistics a StopPolicy can monitor.
const (
	// StopOnAssortativity monitors degree assortativity (the default):
	// a global, swap-sensitive second-order statistic.
	StopOnAssortativity = converge.Assortativity
	// StopOnTriangles monitors the triangle count — more expensive per
	// checkpoint, sensitive to local clustering decay.
	StopOnTriangles = converge.Triangles
	// StopOnSuccessRate monitors only the swap success rate, the
	// cheapest signal (no graph scan at checkpoints).
	StopOnSuccessRate = converge.SuccessRate
)

// StopReport records how a run's swap phase ended — the policy kind,
// reason, iteration count, and (for adaptive runs) the checkpoint
// trail the decision was based on.
type StopReport = obs.StopReport

// StopCheckpoint is one entry of an adaptive run's checkpoint trail.
type StopCheckpoint = obs.StopCheckpoint

// LFRConfig configures the LFR-like hierarchical benchmark generator.
type LFRConfig = lfr.Config

// LFRResult is a generated benchmark graph with its planted communities.
type LFRResult = lfr.Result

// Layer is one level of a generalized hierarchical generation stack.
type Layer = lfr.Layer

// Options configures Generate and Shuffle.
type Options struct {
	// Space selects the sampling-space cell. The zero value is
	// SpaceSimple (the paper's regime, bit-identical to previous
	// releases). Non-simple cells change Shuffle's swap chain to the
	// cell's exact MCMC and make it validate its input against the
	// cell; Generate's output is simple by construction, so non-simple
	// cells only relabel its mixing chain's target.
	Space Space
	// Connected restricts sampling to *connected* simple graphs
	// (Viger–Latapy, arXiv:cs/0502085); it requires a simple-cell Space.
	// Generate starts from a deterministic connected realization of the
	// distribution (exact degrees; the probabilistic model is skipped
	// and Result.Probabilities stays nil); Shuffle repairs its input in
	// place with degree-preserving component-joining swaps (after
	// simplification, if any ran). Both fail when the degree sequence
	// admits no connected realization (isolated vertices, fewer than n-1
	// edges, or non-graphical). Mixing then runs the serial
	// connectivity-preserving chain — Workers still parallelizes the
	// generation phases, but the swap phase is single-threaded and
	// bit-reproducible at any width — and Result.Connectivity reports
	// its check-outcome counters.
	Connected bool
	// Workers is the number of parallel workers; <= 0 means GOMAXPROCS.
	Workers int
	// Seed fixes all randomness for a given worker count.
	Seed uint64
	// SwapIterations is the number of double-edge swap iterations used
	// to mix the graph. The paper observes ~10 iterations reach
	// steady-state attachment probabilities for simple inputs; a few
	// dozen simplify heavily multi-edged inputs.
	SwapIterations int
	// MixUntilSwapped, when set, swaps until every edge has been part
	// of at least one successful swap (the paper's empirical mixing
	// signal) instead of a fixed iteration count, bounded by 128.
	MixUntilSwapped bool
	// StopPolicy, when non-nil, replaces the fixed swap budget with the
	// adaptive convergence monitor: the chain runs until the monitored
	// statistic's checkpoint trace tests stationary, never fewer than
	// StopPolicy.Floor iterations and never more than StopPolicy.Budget.
	// Takes precedence over SwapIterations and MixUntilSwapped. The
	// outcome is reported in Result.Stop. A nil StopPolicy keeps the
	// fixed-iteration path bit-identical to previous releases.
	StopPolicy *StopPolicy
	// RefineProbabilities, when > 0, runs that many iterative
	// proportional fitting passes over the attachment-probability
	// matrix before edge generation, tightening expected-degree
	// residuals on extreme distributions at O(passes·|D|²) extra cost.
	RefineProbabilities int
	// CollectReport, when true, instruments the run and attaches a
	// RunReport to the result. Off (the default) the instrumentation
	// costs nothing: the swap hot path is the same zero-allocation code.
	//
	//nullgraph:nofingerprint instrumentation never changes what is sampled (bit-identity locked by obs parity tests), so instrumented and plain requests may share a pooled chain
	CollectReport bool
}

func (o Options) core() core.Options {
	return core.Options{
		Space:           o.Space,
		Connected:       o.Connected,
		Workers:         o.Workers,
		Seed:            o.Seed,
		SwapIterations:  o.SwapIterations,
		MixUntilSwapped: o.MixUntilSwapped,
		StopPolicy:      o.StopPolicy,
		TrackSwapStats:  true,
		RefinePasses:    o.RefineProbabilities,
	}
}

// recorder returns the obs recorder to thread through the pipeline, or
// nil when reporting is off.
func (o Options) recorder() *obs.Recorder {
	if obs.Enabled && o.CollectReport {
		return obs.NewRecorder()
	}
	return nil
}

// PhaseTimes records the wall time each pipeline phase spent on a run:
// probability generation (Section IV-A), edge-skipping (Section IV-B),
// and double-edge swapping (Section III-A) — the quantities Figure 6
// plots and cmd/nullgraphd aggregates into its /metrics endpoint.
// Phases a run did not execute (e.g. Shuffle never generates) are zero.
type PhaseTimes struct {
	Probabilities  time.Duration
	EdgeGeneration time.Duration
	Swapping       time.Duration
}

// Total returns the end-to-end pipeline time.
func (p PhaseTimes) Total() time.Duration {
	return p.Probabilities + p.EdgeGeneration + p.Swapping
}

// Result is the output of Generate or Shuffle.
type Result struct {
	// Graph is the generated (or shuffled-in-place) simple graph.
	Graph *Graph
	// SwapIterations reports each mixing iteration's statistics.
	SwapIterations []SwapStats
	// Phases records per-phase wall time — always populated, unlike the
	// RunReport, which costs instrumentation and must be opted into.
	Phases PhaseTimes
	// Mixed reports whether every edge swapped at least once (only
	// meaningful with Options.MixUntilSwapped).
	Mixed bool
	// Simplify reports the targeted simplification pass, present only
	// when Shuffle ran one (simple space, non-simple input).
	Simplify *SimplifyStats
	// Connectivity reports the connected chain's check outcomes,
	// present only when Options.Connected was set.
	Connectivity *ConnectivityStats
	// Report holds the chain-health report when Options.CollectReport
	// was set, nil otherwise.
	Report *RunReport
	// Stop records how the swap phase ended: policy "fixed" with the
	// scan count on the default path, or the adaptive monitor's outcome
	// (reason "converged" or "budget" plus its checkpoint trail) when
	// Options.StopPolicy is set.
	Stop *StopReport
}

func wrapResult(out *core.Result, rec *obs.Recorder) *Result {
	res := &Result{
		Graph:          out.Graph,
		SwapIterations: out.Swaps.PerIteration,
		Phases: PhaseTimes{
			Probabilities:  out.Phases.Probabilities,
			EdgeGeneration: out.Phases.EdgeGeneration,
			Swapping:       out.Phases.Swapping,
		},
		Simplify:     out.Simplify,
		Connectivity: out.Connectivity,
		Mixed:        out.Mixed,
		Stop:         out.Stop,
	}
	if rec != nil {
		res.Report = rec.Report()
	}
	return res
}

// Generate draws a uniformly random simple graph matching dist in
// expectation (the paper's Algorithm IV.1: probabilities →
// edge-skipping → double-edge swaps). Equivalent to GenerateContext
// with a background context.
func Generate(dist *DegreeDistribution, opt Options) (*Result, error) {
	return GenerateContext(context.Background(), dist, opt)
}

// GenerateContext is Generate honoring ctx: cancellation is
// cooperative with bounded latency (loop bodies poll every few
// thousand iterations, never on the randomness path, so an uncanceled
// run is bit-identical with or without a cancelable ctx), the partial
// sample is abandoned, and ctx.Err() is returned. A ctx already
// canceled on entry returns before any work.
func GenerateContext(ctx context.Context, dist *DegreeDistribution, opt Options) (*Result, error) {
	return oneShot(ctx, opt, func(e *core.Engine, stop *par.Stop) (*core.Result, error) {
		return e.GenerateSample(dist, 0, stop)
	})
}

// Shuffle mixes an existing graph in place with parallel double-edge
// swaps, preserving every vertex's degree; given enough iterations the
// result is a uniform sample of the graphs in Options.Space with that
// degree sequence. In the simple cells (the default) non-simple inputs
// are first made simple by a targeted bounded pass (Result.Simplify);
// in the loopy and multigraph cells the input must already satisfy the
// cell. The graph must be non-nil with in-range endpoints; empty and
// single-edge inputs are valid no-ops. Equivalent to ShuffleContext
// with a background context.
func Shuffle(g *Graph, opt Options) (*Result, error) {
	return ShuffleContext(context.Background(), g, opt)
}

// ShuffleContext is Shuffle honoring ctx. On cancellation it returns
// ctx.Err() with g left valid — degree sequence and edge count
// preserved (and simplicity, for simple inputs) — but under-mixed:
// swaps committed before the stop are kept. A ctx already canceled on
// entry leaves g untouched.
func ShuffleContext(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	return oneShot(ctx, opt, func(e *core.Engine, stop *par.Stop) (*core.Result, error) {
		return e.ShuffleSample(g, 0, stop)
	})
}

// oneShot runs sample 0 of a single-use session under ctx: the body of
// every package-level entry point, so each is bit-identical (Workers=1)
// to the first call on an Engine with the same Options.
func oneShot(ctx context.Context, opt Options, sample func(*core.Engine, *par.Stop) (*core.Result, error)) (*Result, error) {
	if err := ctxEntryErr(ctx); err != nil {
		return nil, err
	}
	stop, release := par.WatchContext(ctx)
	defer release()
	copt, rec := opt.core(), opt.recorder()
	copt.Recorder = rec
	eng := core.NewEngine(copt)
	defer eng.Close()
	out, err := sample(eng, stop)
	if err != nil {
		return nil, ctxError(ctx, err)
	}
	return wrapResult(out, rec), nil
}

// NewGraph wraps an edge slice with an explicit vertex count, validating
// endpoint ranges.
func NewGraph(edges []Edge, numVertices int) *Graph {
	return graph.NewEdgeList(edges, numVertices)
}

// DistributionFromDegrees builds the degree distribution of a degree
// sequence (one entry per vertex).
func DistributionFromDegrees(degrees []int64) *DegreeDistribution {
	return degseq.FromDegrees(degrees)
}

// DistributionFromCounts builds a distribution from degree → count.
func DistributionFromCounts(counts map[int64]int64) (*DegreeDistribution, error) {
	return degseq.FromCounts(counts)
}

// DistributionOf extracts the degree distribution of an existing graph.
func DistributionOf(g *Graph, workers int) *DegreeDistribution {
	return degseq.FromDegrees(g.Degrees(workers))
}

// PowerLawDistribution samples a graphical degree distribution with
// P(d) ∝ d^-gamma on [minDegree, maxDegree] over n vertices.
func PowerLawDistribution(n, minDegree, maxDegree int64, gamma float64, seed uint64) (*DegreeDistribution, error) {
	return degseq.SamplePowerLaw(degseq.PowerLawConfig{
		NumVertices: n, MinDegree: minDegree, MaxDegree: maxDegree,
		Gamma: gamma, Seed: seed,
	})
}

// HavelHakimi deterministically realizes a graphical distribution as a
// simple graph (an error reports non-graphical input). Combined with
// Shuffle it is the paper's uniform reference sampler.
func HavelHakimi(dist *DegreeDistribution) (*Graph, error) {
	return havelhakimi.Generate(dist)
}

// ConnectedRealization deterministically realizes a graphical
// distribution as a *connected* simple graph: a Havel–Hakimi greedy
// realization followed by degree-preserving component-joining swaps.
// It errors when no connected realization exists (non-graphical,
// isolated vertices with n > 1, or fewer than n-1 edges). Combined
// with Shuffle under Options.Connected it is the uniform
// connected-graph sampler.
func ConnectedRealization(dist *DegreeDistribution) (*Graph, error) {
	return connected.Realize(dist)
}

// ChungLuMultigraph draws the O(m) Chung-Lu model: fast, embarrassingly
// parallel, degree-exact in expectation, but containing self-loops and
// multi-edges. Shuffle simplifies it.
func ChungLuMultigraph(dist *DegreeDistribution, opt Options) *Graph {
	return chunglu.GenerateOM(dist, chunglu.Options{Workers: opt.Workers, Seed: opt.Seed})
}

// ChungLuErased draws the O(m) model and discards loops and duplicate
// edges. Simple, but biased low on skewed distributions.
func ChungLuErased(dist *DegreeDistribution, opt Options) (*Graph, Simplicity) {
	return chunglu.GenerateErased(dist, chunglu.Options{Workers: opt.Workers, Seed: opt.Seed})
}

// ChungLuBernoulli draws the Bernoulli Chung-Lu model with O(m)
// edge-skipping: simple by construction, biased on skewed
// distributions.
func ChungLuBernoulli(dist *DegreeDistribution, opt Options) (*Graph, error) {
	return chunglu.GenerateBernoulli(dist, chunglu.Options{Workers: opt.Workers, Seed: opt.Seed})
}

// ErdosRenyi draws G(n, p) with edge-skipping in O(p·n²) expected work —
// the single-space base case of the paper's Section IV-B machinery.
func ErdosRenyi(n int64, p float64, opt Options) (*Graph, error) {
	return edgeskip.GenerateER(n, p, edgeskip.Options{Workers: opt.Workers, Seed: opt.Seed})
}

// LFR generates an LFR-like community benchmark graph via the paper's
// Section VI layering of pipeline-generated subgraphs. Equivalent to
// LFRContext with a background context.
func LFR(cfg LFRConfig) (*LFRResult, error) {
	return lfr.Generate(cfg)
}

// LFRContext is LFR honoring ctx: cancellation is cooperative (checked
// between per-group pipeline phases and inside their loops) and
// returns ctx.Err() with no result. A ctx already canceled on entry
// returns before any work.
func LFRContext(ctx context.Context, cfg LFRConfig) (*LFRResult, error) {
	if err := ctxEntryErr(ctx); err != nil {
		return nil, err
	}
	stop, release := par.WatchContext(ctx)
	defer release()
	res, err := lfr.GenerateStop(cfg, stop)
	if err != nil {
		return nil, ctxError(ctx, err)
	}
	return res, nil
}

// GenerateLayered builds a graph from explicit per-vertex degrees and an
// arbitrary hierarchy of layers whose Lambda shares sum to 1.
func GenerateLayered(degrees []int64, layers []Layer, opt Options) (*LFRResult, error) {
	return lfr.GenerateLayered(degrees, layers, opt.core())
}

// GenerateOverlapping builds a graph with overlapping communities
// (AGM-style, Section VI's generalization): each vertex's degree splits
// between the global layer (fraction mu) and an equal share per
// community membership.
func GenerateOverlapping(degrees []int64, memberships [][]int32, mu float64, opt Options) (*LFRResult, error) {
	return lfr.GenerateOverlapping(degrees, memberships, mu, opt.core())
}

// Quality compares a generated graph against its target distribution
// with the paper's Figure 3 error triple.
func Quality(g *Graph, dist *DegreeDistribution, workers int) QualityError {
	return metrics.Quality(g, dist, workers)
}

// Gini returns the Gini coefficient of a degree sequence.
func Gini(degrees []int64) float64 { return metrics.Gini(degrees) }

// Assortativity returns the degree assortativity of a graph.
func Assortativity(g *Graph, workers int) float64 { return metrics.Assortativity(g, workers) }

// ComputeStats returns Table I-style summary statistics.
func ComputeStats(g *Graph, workers int) Stats { return graph.ComputeStats(g, workers) }

// ConnectedComponents labels each vertex with a dense component ID and
// returns the component count.
func ConnectedComponents(g *Graph, workers int) (labels []int32, count int) {
	return graph.ConnectedComponents(g, workers)
}

// GlobalClusteringCoefficient returns the transitivity ratio
// 3·triangles/wedges — the clustered-vs-random signal null models are
// used to test.
func GlobalClusteringCoefficient(g *Graph, workers int) float64 {
	return graph.GlobalClusteringCoefficient(g, workers)
}

// CountTriangles returns the triangle count of a simple graph.
func CountTriangles(g *Graph, workers int) int64 {
	return graph.BuildCSR(g, workers).CountTriangles(workers)
}

// ReadGraph parses a text edge list ("u v" per line, '#' comments).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeListText(r) }

// WriteGraph writes a text edge list.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeListText(w, g) }

// ReadGraphInSpace is ReadGraph plus membership validation: the parsed
// edge list must satisfy the given sampling space (no loops and no
// multi-edges for the simple cells, no multi-edges for the loopy
// cells), erroring with the first violation otherwise. It is the
// explicit opt-in gate for feeding non-simple input to the loopy and
// multigraph chains.
func ReadGraphInSpace(r io.Reader, space Space) (*Graph, error) {
	return graph.ReadEdgeListTextInSpace(r, space)
}

// ReadGraphBinaryInSpace is ReadGraphBinary plus the same membership
// validation as ReadGraphInSpace.
func ReadGraphBinaryInSpace(r io.Reader, space Space) (*Graph, error) {
	return graph.ReadEdgeListBinaryInSpace(r, space)
}

// ReadGraphBinary reads the library's binary edge-list format (the
// format WriteGraphBinary emits, and the payload cmd/nullgraphd
// streams). The header is validated rather than trusted, so truncated
// or corrupt inputs fail with a descriptive error instead of a bad
// graph or an allocation bomb.
func ReadGraphBinary(r io.Reader) (*Graph, error) { return graph.ReadEdgeListBinary(r) }

// WriteGraphBinary writes the compact binary edge-list encoding: a
// fixed 24-byte header (magic, vertex count, edge count) followed by
// one packed 64-bit word per edge — ~8 bytes/edge versus ~14 for text,
// parse-free to reload, and self-describing enough that readers detect
// truncation.
func WriteGraphBinary(w io.Writer, g *Graph) error { return graph.WriteEdgeListBinary(w, g) }

// ReadDistribution parses "degree count" lines.
func ReadDistribution(r io.Reader) (*DegreeDistribution, error) { return degseq.Read(r) }

// WriteDistribution writes "degree count" lines.
func WriteDistribution(w io.Writer, d *DegreeDistribution) error { return degseq.Write(w, d) }

// Validate checks that a distribution is well-formed and realizable as
// a simple graph, returning a descriptive error otherwise.
func Validate(dist *DegreeDistribution) error {
	if err := dist.Validate(); err != nil {
		return err
	}
	if !dist.IsGraphical() {
		return fmt.Errorf("nullgraph: degree distribution is not graphical (fails Erdős–Gallai)")
	}
	return nil
}
