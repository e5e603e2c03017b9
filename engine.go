package nullgraph

import (
	"context"
	"errors"
	"sync/atomic"

	"nullgraph/internal/core"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
)

// ErrEngineBusy reports a concurrent call on a single Engine session.
// An Engine is a single-session object: it owns one set of pipeline
// buffers and one sample counter, so overlapping Generate/Shuffle calls
// would race on them. The guard turns that misuse into this error —
// check with errors.Is. Callers that need concurrency hold one Engine
// per goroutine (or pool engines, as cmd/nullgraphd does).
var ErrEngineBusy = core.ErrEngineBusy

// Engine is a reusable generation session. Where Generate and Shuffle
// build and tear down every pipeline buffer per call, an Engine owns
// them for its lifetime — the attachment-probability matrix (cached
// while the distribution is unchanged), the edge-skip chunk and edge
// buffers, the swap engine with its hash table and permutation
// scratch, and one persistent worker pool shared by all phases — so
// repeated calls reach a steady state with near-zero allocations.
//
// Successive calls draw successive members of one sample batch: the
// engine keeps a sample counter, advanced only by successful calls,
// and runs sample s under SampleSeed(opt.Seed, s). Sample 0 is
// bit-identical (Workers = 1) to the one-shot entry points with the
// same Options, which are themselves thin wrappers over a single-use
// session, so migrating a loop from Generate to an Engine changes no
// output — only the allocation profile.
//
// The Result of Generate/GenerateContext aliases engine-owned buffers
// and is valid until the next call on the same Engine; callers that
// keep samples must copy them out. Shuffle mixes the caller's graph in
// place, as the package-level Shuffle does.
//
// An Engine is not safe for concurrent use: overlapping
// Generate/Shuffle calls fail fast with ErrEngineBusy rather than
// racing on the session's buffers. Close releases the worker pool; the
// engine must not be used afterwards.
type Engine struct {
	opt    Options
	eng    *core.Engine
	rec    *obs.Recorder
	sample uint64

	// busy serializes calls: the sample counter and every engine-owned
	// buffer belong to at most one in-flight call.
	busy atomic.Bool
}

// acquire claims the session for one call; an overlapping call gets
// ErrEngineBusy instead of a data race on the sample counter and
// scratch buffers.
func (e *Engine) acquire() error {
	if !e.busy.CompareAndSwap(false, true) {
		return ErrEngineBusy
	}
	return nil
}

func (e *Engine) release() { e.busy.Store(false) }

// NewEngine prepares a session for the given options. Options are
// fixed for the session; in particular Options.CollectReport attaches
// one recorder whose report accumulates across the session's calls.
func NewEngine(opt Options) *Engine {
	copt := opt.core()
	rec := opt.recorder()
	copt.Recorder = rec
	return &Engine{opt: opt, eng: core.NewEngine(copt), rec: rec}
}

// Sample returns the index the next successful call will run as.
func (e *Engine) Sample() uint64 { return e.sample }

// SetSample repositions the batch counter, letting a caller skip ahead
// (e.g. to shard one seed's batch across processes) or re-draw an
// earlier sample.
func (e *Engine) SetSample(sample uint64) { e.sample = sample }

// Generate draws the next sample of the batch from dist. Equivalent to
// GenerateContext with a background context.
func (e *Engine) Generate(dist *DegreeDistribution) (*Result, error) {
	return e.GenerateContext(context.Background(), dist)
}

// GenerateContext draws the next sample of the batch from dist,
// honoring ctx: cancellation is cooperative with bounded latency, the
// partial sample is abandoned, ctx.Err() is returned, and the engine
// remains reusable. A ctx already canceled on entry returns before any
// work. The returned Result aliases engine-owned buffers and is valid
// until the next call.
func (e *Engine) GenerateContext(ctx context.Context, dist *DegreeDistribution) (*Result, error) {
	return e.next(ctx, func(stop *par.Stop) (*core.Result, error) {
		return e.eng.GenerateSample(dist, e.sample, stop)
	})
}

// Shuffle mixes g in place as the next sample of the batch. Equivalent
// to ShuffleContext with a background context.
func (e *Engine) Shuffle(g *Graph) (*Result, error) {
	return e.ShuffleContext(context.Background(), g)
}

// ShuffleContext mixes g in place as the next sample of the batch,
// honoring ctx. On cancellation it returns ctx.Err() with g left valid
// — degree sequence and edge count preserved (and simplicity, for
// simple inputs) — but under-mixed: swaps committed before the stop
// are kept. A ctx already canceled on entry leaves g untouched. The
// sample counter does not advance on cancellation, so retrying re-runs
// the same sample index.
func (e *Engine) ShuffleContext(ctx context.Context, g *Graph) (*Result, error) {
	return e.next(ctx, func(stop *par.Stop) (*core.Result, error) {
		return e.eng.ShuffleSample(g, e.sample, stop)
	})
}

// next claims the session and runs its next sample under ctx,
// advancing the counter only on success.
func (e *Engine) next(ctx context.Context, sample func(*par.Stop) (*core.Result, error)) (*Result, error) {
	if err := ctxEntryErr(ctx); err != nil {
		return nil, err
	}
	if err := e.acquire(); err != nil {
		return nil, err
	}
	defer e.release()
	stop, release := par.WatchContext(ctx)
	defer release()
	out, err := sample(stop)
	if err != nil {
		return nil, ctxError(ctx, err)
	}
	e.sample++
	return wrapResult(out, e.rec), nil
}

// Close releases the session's worker pool. Idempotent; the engine
// must not be used afterwards.
func (e *Engine) Close() { e.eng.Close() }

// SampleSeed derives the pipeline seed of sample s in a batch drawn
// under a base seed — the schedule Engine runs its sample counter
// through. Sample 0 is the base seed itself; later samples decorrelate
// through a golden-ratio multiply. Exported so external batch runners
// (e.g. sharded across processes) can reproduce any single sample with
// a one-shot call: Generate with Options.Seed = SampleSeed(seed, s)
// equals the batch's sample s at Workers = 1.
func SampleSeed(seed, sample uint64) uint64 { return core.SampleSeed(seed, sample) }

// ctxEntryErr is the entry gate of every context-taking API: a ctx
// already canceled returns its error before any input is read or
// touched.
func ctxEntryErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ctxError translates the internal par.ErrStopped sentinel into the
// context's error at the API boundary; other errors pass through. The
// context.Canceled fallback covers the narrow race where the watcher
// observed Done before ctx.Err was published to this goroutine.
func ctxError(ctx context.Context, err error) error {
	if errors.Is(err, par.ErrStopped) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return context.Canceled
	}
	return err
}
