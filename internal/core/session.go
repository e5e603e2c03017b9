package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"nullgraph/internal/connected"
	"nullgraph/internal/converge"
	"nullgraph/internal/degseq"
	"nullgraph/internal/directed"
	"nullgraph/internal/edgeskip"
	"nullgraph/internal/graph"
	"nullgraph/internal/metrics"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
	"nullgraph/internal/probgen"
	"nullgraph/internal/rng"
	"nullgraph/internal/simplify"
	"nullgraph/internal/swap"
)

// SampleSeed derives the pipeline seed of one sample in a batch drawn
// under a base seed. Sample 0 is the base seed itself, so a batch's
// first sample is bit-identical (Workers=1) to a one-shot run with the
// same Options; later samples decorrelate through a golden-ratio
// multiply. Every phase of sample s — edge skipping directly, swapping
// through its own +0x5eed offset — draws from this one seed.
func SampleSeed(seed, sample uint64) uint64 {
	if sample == 0 {
		return seed
	}
	return seed ^ (sample * 0x9e3779b97f4a7c15)
}

// Engine is a reusable generation session: it owns every buffer the
// pipeline needs — the probability matrix (cached while the
// distribution is unchanged), the edge-skip generator's chunk and edge
// buffers, the swap engine with its hash table and permutation scratch,
// and one persistent worker pool shared by all phases — so repeated
// GenerateSample/ShuffleSample calls reach a steady state with
// near-zero allocations. GenerateDirectedSample/ShuffleDirectedSample
// run the directed pipeline through the same steps.
//
// Each sample s runs the pipeline under SampleSeed(opt.Seed, s):
// sample 0 is bit-identical (Workers=1) to the one-shot entry points,
// which are themselves thin wrappers over a single-use Engine.
//
// The Result of GenerateSample aliases engine-owned buffers (the edge
// list, the probability matrix); it is valid until the next call on the
// same Engine. Callers that keep samples must copy them out.
//
// An Engine is not safe for concurrent use. Close releases the worker
// pool; the engine must not be used afterwards.
type Engine struct {
	opt  Options
	pool *par.Pool
	gen  *edgeskip.Generator
	mix  *swap.Engine
	dir  *direction // the direction mix (and mon) were built for

	// busy guards the session's scratch against concurrent misuse:
	// GenerateSample/ShuffleSample hold it for the duration of a call,
	// and an overlapping call fails fast with ErrEngineBusy instead of
	// silently racing on the shared buffers.
	busy atomic.Bool

	// prob and dprob cache the probability matrix of the last
	// undirected and joint distribution.
	prob  probCache[degseq.Class]
	dprob probCache[directed.JointClass]

	// mon is the adaptive convergence monitor, constructed on first use
	// and rearmed (Reset) per sample; monEl is the edge list its eval
	// closure reads, rebound by runSwaps before each adaptive run.
	mon   *converge.Monitor
	monEl *graph.EdgeList
}

// monitor returns the session's convergence monitor for the configured
// policy, building it on first use. The eval closure reads e.monEl so
// one monitor serves every sample the session runs.
func (e *Engine) monitor() *converge.Monitor {
	if e.mon != nil {
		return e.mon
	}
	pol := *e.opt.StopPolicy
	var eval func() float64
	switch {
	case !e.dir.statistic || pol.Statistic == converge.SuccessRate:
		// A nil eval: the monitor follows the swap success-rate trace.
	case pol.Statistic == converge.Triangles:
		eval = func() float64 {
			return float64(graph.BuildCSR(e.monEl, e.opt.Workers).CountTriangles(e.opt.Workers))
		}
	default:
		eval = func() float64 { return metrics.Assortativity(e.monEl, e.opt.Workers) }
	}
	e.mon = converge.NewMonitor(pol, eval)
	return e.mon
}

// NewEngine prepares a session for the given pipeline options. The
// swap engine and all buffers materialize lazily on first use.
func NewEngine(opt Options) *Engine {
	e := &Engine{opt: opt}
	e.pool = par.NewPool(opt.Workers)
	e.gen = edgeskip.NewGenerator(edgeskip.Options{Workers: opt.Workers, Recorder: opt.Recorder})
	e.gen.SetPool(e.pool)
	return e
}

// Close releases the session's worker pool. Idempotent; the engine
// must not be used afterwards.
func (e *Engine) Close() { e.pool.Close() }

// probCache holds the probability matrix of the last distribution a
// session drew from, keyed by a snapshot of its classes that each call
// compares, so a changed distribution invalidates it.
type probCache[C comparable] struct {
	m   *probgen.Matrix
	key []C
}

// get returns the cached matrix when classes match the snapshot, and
// otherwise builds, caches and returns a new one. It reports
// stopped=true, caching nothing, when build was interrupted.
func (c *probCache[C]) get(classes []C, build func() (*probgen.Matrix, bool)) (*probgen.Matrix, bool) {
	if c.m == nil || !slices.Equal(c.key, classes) {
		m, stopped := build()
		if stopped {
			return nil, true
		}
		c.m, c.key = m, append(c.key[:0], classes...)
	}
	return c.m, false
}

// probabilities returns the class probability matrix for dist, serving
// the cached one when the distribution is unchanged since the last
// call. Reports stopped=true when the stop flag interrupted a rebuild.
func (e *Engine) probabilities(dist *degseq.Distribution, stop *par.Stop) (*probgen.Matrix, bool) {
	return e.prob.get(dist.Classes, func() (*probgen.Matrix, bool) {
		m, stopped := probgen.GenerateStop(dist, e.opt.Workers, stop)
		if stopped || e.opt.RefinePasses <= 0 {
			return m, stopped
		}
		return probgen.RefineStop(dist, m, e.opt.RefinePasses, stop)
	})
}

// direction is what a session does differently for one direction of
// graph. The steps both directions share — acquire and admit, the pool,
// the edge-skip generator, runSwaps, the monitor and the record steps —
// read it instead of branching on the direction.
type direction struct {
	// newSwap builds the swap engine: the undirected cells' or the
	// directed chain's.
	newSwap func(*graph.EdgeList, swap.Options) *swap.Engine
	// swapSeed derives the swap chain's seed from the sample seed.
	swapSeed func(uint64) uint64
	// trackStats lets Options.TrackSwapStats turn on ever-swapped
	// tracking; MixUntilSwapped and StopPolicy always do.
	trackStats bool
	// statistic lets the adaptive monitor evaluate
	// StopPolicy.Statistic; without it the monitor's eval is nil, which
	// means the swap success-rate trace.
	statistic bool
	// simplify makes Shuffle check its input against Options.Space and
	// run the simplification and connectivity-repair passes first.
	simplify bool
}

var (
	undirected = &direction{
		newSwap:    swap.NewEngine,
		swapSeed:   func(seed uint64) uint64 { return seed + 0x5eed },
		trackStats: true,
		statistic:  true,
		simplify:   true,
	}
	// directedChain reads each edge (U, V) as the arc U→V. Its
	// fixed-budget chain keeps no ever-swapped flags, no graph
	// statistic is wired for its monitor, and Shuffle mixes the input
	// as given.
	directedChain = &direction{
		newSwap:  swap.NewDirectedEngine,
		swapSeed: func(seed uint64) uint64 { return rng.Mix64(seed) + 0xd15eed },
	}
)

// runSwaps mixes el on the session's swap engine, constructing it for
// dir on first use (or when the direction changes) and rebinding it
// (seed, stop, buffers) on every later call. The returned StopReport
// records how the run ended (fixed or adaptive).
func (e *Engine) runSwaps(dir *direction, el *graph.EdgeList, seed uint64, stop *par.Stop) (swap.Result, bool, *obs.StopReport) {
	if e.mix == nil || e.dir != dir {
		sopt := e.opt.swapOptions(dir)
		sopt.Seed = dir.swapSeed(seed)
		sopt.Pool = e.pool
		sopt.Stop = stop
		e.mix, e.dir, e.mon = dir.newSwap(el, sopt), dir, nil
	} else {
		e.mix.SetSeed(dir.swapSeed(seed))
		e.mix.SetStop(stop)
		e.mix.Reset(el)
	}
	if e.opt.StopPolicy != nil {
		mon := e.monitor()
		mon.Reset()
		e.monEl = el
		res, _ := e.mix.Run(mon.Policy().Budget, mon.Stopper())
		e.monEl = nil
		out := mon.Outcome()
		return res, false, &out
	}
	budget, st := e.opt.SwapIterations, swap.Stopper(nil)
	if e.opt.MixUntilSwapped {
		budget, st = e.opt.maxSwapIterations(), swap.UntilMixed{}
	}
	res, mixed := e.mix.Run(budget, st)
	return res, mixed, converge.FixedStop(len(res.PerIteration), e.opt.MixUntilSwapped, mixed)
}

// acquire claims the session for one call, failing fast with
// ErrEngineBusy when another call holds it. release is the paired
// deferred unlock.
func (e *Engine) acquire() error {
	if !e.busy.CompareAndSwap(false, true) {
		return ErrEngineBusy
	}
	return nil
}

func (e *Engine) release() { e.busy.Store(false) }

// admit gates a claimed call: the input's validation error, then the
// options, then a stop already tripped on entry.
func (e *Engine) admit(input error, stop *par.Stop) error {
	if input != nil {
		return input
	}
	if err := e.opt.validate(); err != nil {
		return err
	}
	if stop.Stopped() {
		return par.ErrStopped
	}
	return nil
}

// finish runs the swap phase on res.Graph, timed from start, then
// records the sample into the run report. A stop abandons the sample.
func (e *Engine) finish(dir *direction, res *Result, seed uint64, stop *par.Stop, start time.Time) (*Result, error) {
	res.Swaps, res.Mixed, res.Stop = e.runSwaps(dir, res.Graph, seed, stop)
	res.Phases.Swapping = time.Since(start)
	if res.Swaps.Stopped {
		// The graph is valid but under-mixed; the sample is abandoned
		// rather than returned partially uniform.
		return nil, par.ErrStopped
	}
	res.Connectivity = e.mix.ConnectivityStats()
	recordStop(e.opt, res.Stop)
	recordPhases(e.opt, res.Phases)
	recordSpace(e.opt)
	recordSimplify(e.opt, res.Simplify)
	recordConnectivity(e.opt, res.Connectivity)
	return res, nil
}

// GenerateSample runs the full pipeline (Algorithm IV.1) for the
// sample-th member of the batch. The returned Result aliases
// engine-owned buffers and is valid until the next call.
//
// When stop trips mid-run, GenerateSample returns par.ErrStopped; no
// graph is returned and the engine remains reusable. A stop observed
// before any work leaves everything untouched.
//
// An overlapping call on the same Engine returns ErrEngineBusy.
func (e *Engine) GenerateSample(dist *degseq.Distribution, sample uint64, stop *par.Stop) (*Result, error) {
	if err := e.acquire(); err != nil {
		return nil, err
	}
	defer e.release()
	if err := e.admit(dist.Validate(), stop); err != nil {
		return nil, err
	}
	seed := SampleSeed(e.opt.Seed, sample)
	res := &Result{}
	start := time.Now()
	if e.opt.Connected {
		// The probabilistic model realizes a *random* degree sequence,
		// which on skewed inputs almost always strands isolated vertices
		// — unrepairable without changing degrees. Connected generation
		// therefore constructs an exact connected realization of dist
		// instead (Havel-Hakimi + deterministic cycle-edge repair): every
		// sample starts from this deterministic seed graph and
		// decorrelates through its own chain seed, the same fixed-start
		// regime the connected-uniformity gates certify. No probability
		// matrix is involved, so Result.Probabilities stays nil.
		el, err := connected.Realize(dist)
		if err != nil {
			return nil, fmt.Errorf("core: connected realization: %w", err)
		}
		res.Graph = el
		res.Phases.EdgeGeneration = time.Since(start)
	} else {
		prob, stopped := e.probabilities(dist, stop)
		if stopped {
			return nil, par.ErrStopped
		}
		res.Probabilities = prob
		res.Phases.Probabilities = time.Since(start)
		start = time.Now()
		el, err := e.gen.Generate(dist, prob, seed, stop)
		if err := edgeSkipped(res, el, err, start); err != nil {
			return nil, err
		}
	}
	return e.finish(undirected, res, seed, stop, time.Now())
}

// GenerateDirectedSample runs the directed pipeline for the sample-th
// member of the batch: the directed probability heuristic
// (directed.GenerateProbabilities, cached like GenerateSample's
// matrix), edge-skipping over the ordered class-pair spaces, then the
// directed swap chain. Result.Graph holds arcs — each edge (U, V) is the
// arc U→V, which directed.EdgesAsArcs views in place — and aliases
// engine-owned buffers like GenerateSample's. The session's Options
// must name a simple Space without Connected; RefinePasses does not
// apply. Stop and busy behave as in GenerateSample.
func (e *Engine) GenerateDirectedSample(d *directed.JointDistribution, sample uint64, stop *par.Stop) (*Result, error) {
	if err := e.acquire(); err != nil {
		return nil, err
	}
	defer e.release()
	if err := e.admit(validateJoint(d), stop); err != nil {
		return nil, err
	}
	seed := SampleSeed(e.opt.Seed, sample)
	res := &Result{}
	start := time.Now()
	prob, _ := e.dprob.get(d.Classes, func() (*probgen.Matrix, bool) {
		return directed.GenerateProbabilities(d, e.opt.Workers), false
	})
	res.Probabilities = prob
	res.Phases.Probabilities = time.Since(start)
	start = time.Now()
	el, err := e.gen.GenerateOrdered(d.Counts(), prob, seed, stop)
	if err := edgeSkipped(res, el, err, start); err != nil {
		return nil, err
	}
	return e.finish(directedChain, res, seed, stop, time.Now())
}

// validateJoint gates a joint distribution: sorted positive classes
// whose out- and in-stubs balance.
func validateJoint(d *directed.JointDistribution) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.OutStubs() != d.InStubs() {
		return fmt.Errorf("core: out stubs %d != in stubs %d (not a digraph sequence)", d.OutStubs(), d.InStubs())
	}
	return nil
}

// edgeSkipped closes the edge-skipping phase begun at start: it keeps
// the generator's graph and phase time, or passes on its error.
func edgeSkipped(res *Result, el *graph.EdgeList, err error, start time.Time) error {
	if errors.Is(err, par.ErrStopped) {
		return par.ErrStopped
	}
	if err != nil {
		return fmt.Errorf("core: edge generation: %w", err)
	}
	res.Graph = el
	res.Phases.EdgeGeneration = time.Since(start)
	return nil
}

// ShuffleSample mixes an existing edge list in place (Problem 1) as
// the sample-th member of the batch, with FromEdgeList's validation.
//
// When stop trips mid-run, ShuffleSample returns par.ErrStopped and el
// is left valid but under-mixed: its degree sequence and edge count
// are preserved (and simplicity, for simple inputs), with all swaps
// committed before the stop kept. A stop observed before any work
// leaves el untouched.
//
// An overlapping call on the same Engine returns ErrEngineBusy.
func (e *Engine) ShuffleSample(el *graph.EdgeList, sample uint64, stop *par.Stop) (*Result, error) {
	return e.shuffle(undirected, el, sample, stop)
}

// ShuffleDirectedSample mixes a digraph in place with the directed
// chain as the sample-th member of the batch, preserving every in- and
// out-degree. al must be non-nil with in-range endpoints; it is mixed
// as given, without a simplification pass. Result.Graph views al's arcs
// as edges. Stop and busy behave as in ShuffleSample.
func (e *Engine) ShuffleDirectedSample(al *directed.ArcList, sample uint64, stop *par.Stop) (*Result, error) {
	var el *graph.EdgeList
	if al != nil {
		el = &graph.EdgeList{Edges: directed.ArcsAsEdges(al.Arcs), NumVertices: al.NumVertices}
	}
	return e.shuffle(directedChain, el, sample, stop)
}

// shuffle is the body of both Shuffle entry points.
func (e *Engine) shuffle(dir *direction, el *graph.EdgeList, sample uint64, stop *par.Stop) (*Result, error) {
	if err := e.acquire(); err != nil {
		return nil, err
	}
	defer e.release()
	if err := e.admit(validateEdgeList(el), stop); err != nil {
		return nil, err
	}
	seed := SampleSeed(e.opt.Seed, sample)
	res := &Result{Graph: el}
	start := time.Now()
	if dir.simplify {
		if err := e.prepare(res, seed); err != nil {
			return nil, err
		}
	}
	return e.finish(dir, res, seed, stop, start)
}

// prepare readies an undirected Shuffle input for the chain: it checks
// res.Graph against Options.Space, simplifies it in the simple cells
// and repairs its connectivity under Options.Connected.
func (e *Engine) prepare(res *Result, seed uint64) error {
	el := res.Graph
	if !e.opt.Space.AllowsLoops() {
		// Simple cells tolerate non-simple input: the targeted pass
		// (internal/simplify) removes its defects within the Sjöstrand
		// bound before the chain runs, replacing the historical "swaps
		// eventually simplify" hope. Simple inputs skip the pass
		// entirely, consuming no randomness — the historical output is
		// bit-identical for them.
		if !el.SatisfiesSpace(graph.SimpleStub) {
			sres := simplify.Run(el, seed)
			res.Simplify = &sres
		}
	} else if err := graph.ValidateInSpace(el, e.opt.Space); err != nil {
		// Non-simple cells are an explicit opt-in with a hard membership
		// contract: the chain's acceptance rule assumes a legal state.
		return err
	}
	if e.opt.Connected {
		// Repair runs after simplification so the component-joining
		// swaps see a simple graph; an already-connected input passes
		// through untouched (zero merges).
		if _, err := connected.Connect(el); err != nil {
			return fmt.Errorf("core: connected repair: %w", err)
		}
	}
	return nil
}
