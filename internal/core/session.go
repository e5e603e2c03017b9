package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nullgraph/internal/connected"
	"nullgraph/internal/converge"
	"nullgraph/internal/degseq"
	"nullgraph/internal/edgeskip"
	"nullgraph/internal/graph"
	"nullgraph/internal/metrics"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
	"nullgraph/internal/probgen"
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
// near-zero allocations.
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

	// busy guards the session's scratch against concurrent misuse:
	// GenerateSample/ShuffleSample hold it for the duration of a call,
	// and an overlapping call fails fast with ErrEngineBusy instead of
	// silently racing on the shared buffers.
	busy atomic.Bool

	// prob caches the probability matrix of the last distribution;
	// probKey is a snapshot of its classes, compared per call so a
	// changed distribution invalidates the cache.
	prob    *probgen.Matrix
	probKey []degseq.Class

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
	switch pol.Statistic {
	case converge.SuccessRate:
		eval = nil
	case converge.Triangles:
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
func (e *Engine) Close() {
	if e.mix != nil {
		e.mix.Close() // no-op for the pool (externally owned), kept for symmetry
	}
	e.pool.Close()
}

// classesEqual reports whether the cached class snapshot still
// describes dist.
//
//nullgraph:hotpath
func classesEqual(a, b []degseq.Class) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probabilities returns the class probability matrix for dist, serving
// the cached one when the distribution is unchanged since the last
// call. Reports stopped=true when the stop flag interrupted a rebuild.
func (e *Engine) probabilities(dist *degseq.Distribution, stop *par.Stop) (*probgen.Matrix, bool) {
	if e.prob != nil && classesEqual(e.probKey, dist.Classes) {
		return e.prob, false
	}
	m, stopped := probgen.GenerateStop(dist, e.opt.Workers, stop)
	if stopped {
		return nil, true
	}
	if e.opt.RefinePasses > 0 {
		m, stopped = probgen.RefineStop(dist, m, e.opt.RefinePasses, stop)
		if stopped {
			return nil, true
		}
	}
	e.prob = m
	e.probKey = append(e.probKey[:0], dist.Classes...)
	return m, false
}

// runSwaps mixes el on the session's swap engine, constructing it on
// first use and rebinding it (seed, stop, buffers) on every later call.
// The returned StopReport records how the run ended (fixed or adaptive).
func (e *Engine) runSwaps(el *graph.EdgeList, seed uint64, stop *par.Stop) (swap.Result, bool, *obs.StopReport) {
	if e.mix == nil {
		sopt := e.opt.swapOptions()
		sopt.Seed = seed + 0x5eed
		sopt.Pool = e.pool
		sopt.Stop = stop
		e.mix = swap.NewEngine(el, sopt)
	} else {
		e.mix.SetSeed(seed + 0x5eed)
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
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	if err := e.opt.validate(); err != nil {
		return nil, err
	}
	if stop.Stopped() {
		return nil, par.ErrStopped
	}
	seed := SampleSeed(e.opt.Seed, sample)
	res := &Result{}

	var el *graph.EdgeList
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
		start := time.Now()
		var err error
		el, err = connected.Realize(dist)
		if err != nil {
			return nil, fmt.Errorf("core: connected realization: %w", err)
		}
		res.Phases.EdgeGeneration = time.Since(start)
	} else {
		start := time.Now()
		prob, stopped := e.probabilities(dist, stop)
		if stopped {
			return nil, par.ErrStopped
		}
		res.Probabilities = prob
		res.Phases.Probabilities = time.Since(start)

		start = time.Now()
		var err error
		el, err = e.gen.Generate(dist, prob, seed, stop)
		if err != nil {
			if errors.Is(err, par.ErrStopped) {
				return nil, par.ErrStopped
			}
			return nil, fmt.Errorf("core: edge generation: %w", err)
		}
		res.Phases.EdgeGeneration = time.Since(start)
	}
	res.Graph = el

	start := time.Now()
	res.Swaps, res.Mixed, res.Stop = e.runSwaps(el, seed, stop)
	res.Phases.Swapping = time.Since(start)
	if res.Swaps.Stopped {
		// The generated edge list is valid but under-mixed; the sample
		// is abandoned rather than returned partially uniform.
		return nil, par.ErrStopped
	}
	res.Connectivity = e.mix.ConnectivityStats()
	recordStop(e.opt, res.Stop)
	recordPhases(e.opt, res.Phases)
	recordSpace(e.opt)
	recordSimplify(e.opt, nil)
	recordConnectivity(e.opt, res.Connectivity)
	return res, nil
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
	if err := e.acquire(); err != nil {
		return nil, err
	}
	defer e.release()
	if err := validateEdgeList(el); err != nil {
		return nil, err
	}
	if err := e.opt.validate(); err != nil {
		return nil, err
	}
	if stop.Stopped() {
		return nil, par.ErrStopped
	}
	seed := SampleSeed(e.opt.Seed, sample)
	res := &Result{Graph: el}
	start := time.Now()
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
		return nil, err
	}
	if e.opt.Connected {
		// Repair runs after simplification so the component-joining
		// swaps see a simple graph; an already-connected input passes
		// through untouched (zero merges).
		if _, err := connected.Connect(el); err != nil {
			return nil, fmt.Errorf("core: connected repair: %w", err)
		}
	}
	res.Swaps, res.Mixed, res.Stop = e.runSwaps(el, seed, stop)
	res.Phases.Swapping = time.Since(start)
	if res.Swaps.Stopped {
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
