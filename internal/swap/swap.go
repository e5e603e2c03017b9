// Package swap implements the paper's parallel double-edge swap engine
// (Algorithm III.1): an MCMC process that uniformly mixes the simple
// graphs of a fixed degree sequence.
//
// Each iteration:
//  1. every current edge is inserted into a concurrent hash table,
//     512 keys per table call (hashtable.Writer.InsertKeys),
//  2. the edge list is randomly permuted: the inside-out shuffle's
//     targets are drawn in parallel from per-worker streams, then one
//     serial pass applies them (see the permute package doc for why the
//     apply is not Shun et al.'s reservation rounds),
//  3. adjacent disjoint pairs (E[2k], E[2k+1]) each propose one of the
//     two endpoint exchanges, chosen by a fair coin, and commit it iff
//     neither new edge is a self-loop and neither is already present in
//     the table (checked with thread-safe TestAndSet). Each worker
//     takes its pairs 256 at a time: it computes the proposals, admits
//     them with one batched TestAndSet call
//     (hashtable.Writer.TestAndSetPairs), then commits the fresh ones.
//     The table answers the same keys in the same order as a per-pair
//     loop would, so batching changes no outcome,
//  4. the table is cleared with a parallel streaming sweep and the
//     per-worker insert counters are checked against the load contract.
//
// Degree sequence, edge count and — once the input is simple —
// simplicity are invariants of every iteration. Non-simple inputs (the
// O(m) Chung-Lu model emits loops and multi-edges) are progressively
// "simplified": a duplicate edge can swap into two fresh edges, and the
// paper observes a few dozen iterations remove all multi-edges.
//
// Every parallel cell (see policy.go) and the directed chain run this
// one kernel: a single register body and a single sweep body, whose
// behaviour is set by three loop-invariant values — the acceptance
// rule, the worker's observability counters (nil without a recorder)
// and the cooperative stop flag (nil when the run is uncancelable).
// The directed chain (NewDirectedEngine) is the fourth rule: it keys
// the table by ordered arcs, proposes each pair's single legal
// exchange behind a lazy coin, and adds a triangle-reversal phase
// after the sweep, on the same table, permutation and stop polling.
// One run loop, Drive, serves every chain; Engine.Run is its only
// driver, and a Stopper such as UntilMixed ends a run early.
//
// Deviation from the paper's pseudocode, documented here once: the
// self-loop test runs *before* the TestAndSet calls rather than after.
// Algorithm III.1's short-circuit `TestAndSet(g) = false and
// TestAndSet(h) = false and not loops` inserts g (and possibly h) into
// the table even when the loop test then rejects the proposal, which
// spuriously blocks later proposals of g in the same iteration. Testing
// loops first only removes those spurious failures; every committed
// swap satisfies exactly the same conditions.
//
// # Hot-path memory discipline
//
// The Engine owns every buffer an iteration needs — hash-table writer
// counters, the permutation target array, per-worker padded
// accumulators, a persistent worker pool — so after the first Step on a
// given size, Step performs no heap allocations and the only
// cross-worker atomics are the edge table's CAS slots. A one-worker
// engine's table has a single writer (hashtable.NewCountingWriters(1)),
// which inserts with plain stores and no CAS at all; nothing else
// touches the table while a Step runs, which is the single-writer
// contract. Step must not be called concurrently with itself or with
// any other method of the same Engine.
package swap

import (
	"fmt"

	"nullgraph/internal/connected"
	"nullgraph/internal/graph"
	"nullgraph/internal/hashtable"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
	"nullgraph/internal/permute"
	"nullgraph/internal/rng"
)

// Options configures a swap run.
type Options struct {
	// Space selects the cell of the sampling-space matrix the chain
	// targets (see graph.Space and policy.go). The zero value is
	// graph.SimpleStub — the paper's regime — and leaves every code
	// path bit-identical to the pre-matrix engine. Stub-labeled cells
	// run the parallel kernel with a per-space acceptance rule; the
	// vertex-labeled loopy/multigraph cells run a serial exact
	// Metropolis–Hastings sweep (Workers is ignored there). The caller
	// is responsible for the input being a legal state of the space;
	// the simple cells additionally tolerate non-simple input, which
	// the chain progressively simplifies (the historical behavior —
	// internal/simplify does it deterministically instead).
	Space graph.Space
	// Connected restricts the simple cell to *connected* simple graphs
	// (Viger–Latapy, arXiv:cs/0502085): proposals that would disconnect
	// the graph are rejected by a connectivity checker with a cached
	// spanning-tree witness (internal/connected). The chain is serial —
	// parallel commits that are individually connectivity-safe can
	// jointly disconnect the graph, so Workers is ignored, like the
	// vertex-labeled MH cells — and requires a connected simple input
	// (see connected.Connect for the repair) and a simple-cell Space.
	Connected bool
	// Iterations is the number of full permute-and-sweep passes the
	// one-shot Run performs; Engine.Run takes its budget as an argument.
	Iterations int
	// Workers is the parallel width; <= 0 means GOMAXPROCS.
	Workers int
	// Seed drives the permutations and proposal coins. With Workers=1
	// the run is bit-reproducible. With Workers>1 all *randomness* is
	// still seed-determined, but when two workers concurrently propose
	// the same new edge, which proposal the hash table admits depends
	// on scheduling — the same benign race the paper's OpenMP
	// implementation has — so exact outputs can differ across runs
	// while every invariant (degrees, edge count, simplicity) and the
	// sampled distribution are unaffected.
	Seed uint64
	// Probing selects the hash-table collision strategy.
	Probing hashtable.Probing
	// TrackSwapped maintains a per-edge "ever successfully swapped" flag
	// so IterStats can report the mixing fraction the paper uses as its
	// empirical stopping signal. The fraction is accumulated
	// incrementally from newly-set flags, so tracking costs one serial
	// pass over the 1-byte flags per iteration (they follow the edges
	// under the same permutation targets) but no re-scan; leave false in
	// throughput benchmarks.
	TrackSwapped bool
	// OnIteration, when non-nil, receives each iteration's statistics as
	// soon as the sweep finishes; experiments use it to snapshot
	// convergence without re-running.
	OnIteration func(iteration int, stats IterStats)
	// Recorder, when non-nil (and the obs layer is compiled in),
	// collects chain-health observability: per-iteration rejection
	// splits, hash-table probe-length histograms, and the ever-swapped
	// trajectory, aggregated at each iteration's quiescent point into
	// an obs.RunReport. The cost model is pay-for-use: the loop bodies
	// record into the worker's counters cell only when a recorder is
	// attached, so a nil Recorder leaves the chain and the hot path's
	// zero-allocation budget unchanged.
	Recorder *obs.Recorder
	// Stop, when non-nil, is polled cooperatively inside each phase's
	// loops (every few thousand indices) and between phases; a tripped
	// flag ends the run early with Result.Stopped set, leaving the edge
	// list valid (degree sequence and edge count preserved) but not
	// fully mixed. Polling never consumes randomness, so untripped runs
	// are bit-identical with or without a Stop, and a nil Stop leaves
	// the hot path's zero-allocation budget untouched.
	Stop *par.Stop
	// Pool, when non-nil, is an externally owned worker pool the engine
	// dispatches on instead of creating its own; the pool's width
	// overrides Workers, and Close leaves it running. Sessions use this
	// to share one pool across all pipeline phases.
	Pool *par.Pool
}

// Validate reports option misuse.
func (o Options) Validate() error {
	if o.Iterations < 0 {
		return fmt.Errorf("swap: negative iteration count %d", o.Iterations)
	}
	if !o.Space.Valid() {
		return fmt.Errorf("swap: invalid sampling space %v", o.Space)
	}
	if o.Connected && (o.Space.AllowsLoops() || o.Space.AllowsMulti()) {
		return fmt.Errorf("swap: Connected sampling is defined for the simple cell only, not %v", o.Space)
	}
	return nil
}

// IterStats reports one iteration of swapping.
type IterStats struct {
	// Attempts is the number of proposed pair swaps (⌊m/2⌋).
	Attempts int64
	// Successes is the number of committed swaps.
	Successes int64
	// EverSwapped is the fraction of edges that have been part of at
	// least one successful swap in any iteration so far. Only populated
	// when Options.TrackSwapped is set.
	EverSwapped float64
}

// Result summarizes a run.
type Result struct {
	PerIteration []IterStats
	// TotalSuccesses across all iterations.
	TotalSuccesses int64
	// Stopped reports that a cooperative stop flag ended the run before
	// its iteration budget. The edge list is valid (degrees, edge count,
	// and — for simple inputs — simplicity all hold) but under-mixed:
	// the interrupted iteration's partial work is kept, its statistics
	// are not reported, and PerIteration covers only complete
	// iterations.
	Stopped bool
}

// permSeedFor and sweepSeedFor derive an iteration's permutation and
// proposal streams; factored out so the naive reference implementation
// in the tests replays the exact streams.
func permSeedFor(seed uint64, it int) uint64 {
	return rng.Mix64(seed) + 0x9e3779b97f4a7c15*uint64(it+1)
}

func sweepSeedFor(seed uint64, it int) uint64 {
	return rng.Mix64(seed) ^ rng.Mix64(uint64(it)+0xabcd0123)
}

// sweepWorkerSeed derives worker w's proposal stream for an iteration.
func sweepWorkerSeed(sweepSeed uint64, w int) uint64 {
	return rng.Mix64(sweepSeed) ^ rng.Mix64(uint64(w)+0x5134)
}

// maxTableSlack bounds how much larger than an input's need a rebound
// engine's edge table may stay. Same-shape batch samples jitter far
// less; an engine reused for a several times smaller graph rebuilds its
// table instead of sweeping the big one every iteration.
const maxTableSlack = 4

// Engine holds the reusable state of the swap process on one edge list:
// the concurrent edge table with its per-worker insertion counters, the
// ever-swapped flags, the permutation target array, and the worker pool.
// Iterations can be run in any grouping without losing tracking state.
//
// NewEngine's engines with more than one worker own parked goroutines;
// call Close when done with an engine (the one-shot Run does it for the
// engine it creates). A NewDirectedEngine engine owns none. All methods
// must be called from one goroutine at a time.
type Engine struct {
	el  *graph.EdgeList
	opt Options
	p   int

	pool     *par.Pool
	ownsPool bool
	table    *hashtable.EdgeSet
	writers  []*hashtable.Writer

	// Space-derived configuration, fixed at construction. vertexMH
	// selects the serial Metropolis–Hastings step (policy.go); useTable
	// is false for cells whose acceptance rule never consults the edge
	// table (multigraph-stub accepts every proposal), which skips the
	// register and clear phases entirely. rule is the acceptance rule
	// the parallel sweep applies (a stub cell's, or the directed
	// chain's); ms is the live multiplicity view the vertex-labeled
	// step reads (the connected step reads its checker instead).
	vertexMH bool
	useTable bool
	rule     acceptRule
	ms       *graph.Multiset

	// connMode selects the serial connectivity-preserving step
	// (connected.go); conn is its swap-acceptance checker. Both are nil
	// state for unconstrained runs, whose code paths stay bit-identical.
	connMode bool
	conn     *connected.Checker

	// stop is the attached cooperative cancellation flag (nil when the
	// run is uncancelable, which keeps the hot path to nil checks).
	stop *par.Stop

	// swapped flags ever-swapped edges; swappedCount accumulates the
	// number of set flags so EverSwappedFraction is O(1) instead of an
	// O(m) rescan per iteration.
	swapped      []uint8
	swappedCount int64

	// h is the permutation target buffer.
	h []int32

	// successes and newly are per-worker padded accumulators (cache-line
	// isolated so workers don't false-share).
	successes []par.Cell
	newly     []par.Cell

	// batches are the workers' sub-block buffers for the register and
	// sweep phases, one separate allocation each (see batch).
	batches []*batch

	// iteration counts all iterations run so far; it seeds each
	// iteration's permutation and proposal streams. permSeed/sweepSeed
	// are the current iteration's derived seeds, read by the prebound
	// bodies below.
	iteration int
	permSeed  uint64
	sweepSeed uint64

	// rec is the attached chain-health recorder (nil when observability
	// is off). probed is set when the parallel bodies feed the workers'
	// obs.Counters cells: a recorder on a simple cell.
	rec    *obs.Recorder
	probed bool

	// The parallel-region bodies as method values, bound once here so
	// Step dispatches them without allocating.
	registerBody  func(w int, r par.Range)
	targetsBody   func(w int, r par.Range)
	sweepBody     func(w int, r par.Range)
	trianglesBody func(w int, r par.Range)
	clearBody     func(w int, r par.Range)
}

// NewEngine prepares a swap engine over el. The engine mutates el's
// edge slice in place; el must not be resized while the engine is live.
func NewEngine(el *graph.EdgeList, opt Options) *Engine {
	eng := newEngine(opt)
	switch opt.Space {
	case graph.LoopyVertex, graph.MultigraphVertex:
		// Serial exact-MH cells: no table, no permutation.
		eng.vertexMH = true
	case graph.MultigraphStub:
		// Every proposal is accepted, so the register/clear phases and
		// the table itself are dead weight; only permute-and-commit runs.
		eng.rule = acceptAll
	case graph.LoopyStub:
		eng.useTable = true
		eng.rule = acceptLoopyStub
	default: // SimpleStub, SimpleVertex: one regime, see graph.Space.
		eng.useTable = true
		eng.rule = acceptSimple
	}
	if opt.Connected {
		if opt.Space.AllowsLoops() || opt.Space.AllowsMulti() {
			panic("swap: Connected sampling is defined for the simple cell only (Options.Validate catches this)")
		}
		// The connected chain is a serial sweep over the checker's live
		// adjacency (like the vertex-MH cells over their multiset), so
		// the frozen table and the permutation machinery are dead weight.
		eng.connMode = true
		eng.useTable = false
		eng.conn = connected.NewChecker()
	}
	if eng.pool == nil {
		eng.pool = par.NewPool(eng.p)
		eng.ownsPool = true
	}
	// Probe-level instrumentation exists for the simple cells only; the
	// other cells still flush per-iteration chain statistics.
	eng.probed = eng.rec != nil && (opt.Space == graph.SimpleStub || opt.Space == graph.SimpleVertex)
	eng.bind(el)
	return eng
}

// NewDirectedEngine prepares an engine running the directed chain on
// el, reading each edge (U, V) as the arc U→V: the simple-digraph
// analog of Algorithm III.1 that preserves every in- and out-degree
// (see acceptDirected in policy.go). Space must be a simple cell and
// Connected false.
// Without Options.Pool the engine owns no goroutines — its phases
// dispatch per-call workers — so Close is optional; an Options.Pool is
// used as NewEngine uses it.
func NewDirectedEngine(el *graph.EdgeList, opt Options) *Engine {
	if opt.Space.AllowsLoops() || opt.Space.AllowsMulti() || opt.Connected {
		panic("swap: the directed chain samples simple digraphs; Space must be a simple cell and Connected false")
	}
	eng := newEngine(opt)
	eng.useTable = true
	eng.rule = acceptDirected
	eng.bind(el)
	return eng
}

// newEngine builds the state every engine shares — width,
// accumulators, bound bodies, recorder and stop flag — leaving the
// rule, the pool (nil unless Options.Pool) and the binding to the
// constructors.
func newEngine(opt Options) *Engine {
	p := par.Workers(opt.Workers)
	if opt.Pool != nil {
		// Per-worker state (writers, cells) is indexed by the dispatching
		// pool's worker IDs, so an external pool dictates the width.
		p = opt.Pool.Workers()
	}
	eng := &Engine{opt: opt, p: p, pool: opt.Pool}
	eng.successes = make([]par.Cell, p)
	eng.newly = make([]par.Cell, p)

	eng.registerBody = eng.register
	eng.targetsBody = eng.targets
	eng.sweepBody = eng.sweep
	eng.trianglesBody = eng.triangles
	eng.clearBody = eng.clearChunk

	if obs.Enabled && opt.Recorder != nil {
		eng.rec = opt.Recorder
	}
	eng.stop = opt.Stop
	return eng
}

// bind sizes the per-edge-list state (multiset, connectivity checker,
// table, target buffer, flags) for el, reusing existing buffers when
// they are large enough.
func (eng *Engine) bind(el *graph.EdgeList) {
	eng.el = el
	m := len(el.Edges)
	if eng.vertexMH {
		// The vertex-MH steps read multiplicities instead of a frozen
		// table and propose positions directly, so the multiset is the
		// per-edge-list state they need.
		if eng.ms == nil {
			eng.ms = graph.MultisetOf(el)
		} else {
			eng.ms.Reset()
			for _, e := range el.Edges {
				eng.ms.AddEdge(e)
			}
		}
	}
	if eng.connMode {
		// The connected chain's hard precondition is a connected simple
		// input; callers repair with connected.Connect before binding.
		// The checker's adjacency is also its simplicity test.
		if err := eng.conn.Bind(el); err != nil {
			panic("swap: " + err.Error())
		}
	}
	if m >= 2 && eng.useTable {
		// Worst case insertions per iteration: m initial edges + 2 new
		// edges per proposing pair = 2m, the table's exact capacity; the
		// directed chain's triangle phase adds 3 per triple, 3m in all.
		// The table is cleared by a full sweep, which streams at memory
		// bandwidth (see the hashtable package doc).
		need := 2 * m
		if eng.rule == acceptDirected {
			need = 3 * m
		}
		// A table far larger than need (left by an earlier, bigger
		// input) would cost a sweep of all its slots every iteration, so
		// it is rebuilt at size, like a fresh engine's.
		if eng.table == nil || eng.table.Capacity() < need || eng.table.Capacity() > maxTableSlack*need {
			capacity := need
			if eng.table != nil && eng.table.Capacity() < need {
				// Rebind growth: batch samples over a same-shape input
				// jitter in edge count, so a little slack absorbs the
				// fluctuations instead of reallocating per sample. Slot
				// count affects only probe lengths, never membership
				// outcomes (exact key compare), so output is unchanged.
				capacity += m / 4
			}
			eng.table = hashtable.New(capacity, eng.opt.Probing)
			eng.writers = eng.table.NewCountingWriters(eng.p)
		}
		for _, w := range eng.writers {
			w.Reset()
		}
	}
	if m >= 2 && !eng.vertexMH && !eng.connMode {
		// Permutation target buffer — every parallel cell permutes, with
		// or without a table; the serial steps propose positions
		// directly and need none.
		if cap(eng.h) < m {
			grown := m
			if eng.h != nil {
				grown += m / 8
			}
			eng.h = make([]int32, grown)
		}
		eng.h = eng.h[:m]
		if eng.batches == nil {
			eng.batches = make([]*batch, eng.p)
			for w := range eng.batches {
				eng.batches[w] = new(batch)
			}
		}
	}
	if eng.opt.TrackSwapped {
		if cap(eng.swapped) < m {
			eng.swapped = make([]uint8, m)
		}
		eng.swapped = eng.swapped[:m]
		clear(eng.swapped)
	}
	eng.swappedCount = 0
	eng.iteration = 0
	if eng.rec != nil {
		// A (re)bound engine starts a fresh chain, so the recorder's
		// swap section restarts with it; generation-phase sections
		// recorded earlier in the pipeline are preserved.
		eng.rec.StartRun(eng.opt.Seed, eng.p, m)
	}
}

// Reset rebinds the engine to a new edge list, reusing the table,
// counters, target buffer and pool when capacities allow. Tracking
// state and the iteration counter restart from zero, so a Reset engine
// behaves exactly like a freshly constructed one (bit-identically for
// Workers=1). The previous edge list is left as the last Step left it.
func (eng *Engine) Reset(el *graph.EdgeList) {
	eng.bind(el)
}

// SetSeed redirects the randomness of subsequent iterations to a new
// seed stream. Combined with Reset, it lets one engine's buffers serve
// a batch of independent samples.
func (eng *Engine) SetSeed(seed uint64) { eng.opt.Seed = seed }

// SetStop attaches (or, with nil, detaches) a cooperative stop flag for
// subsequent iterations; every phase, the permutation's apply included,
// polls it. With a nil stop the plain loop bodies run, preserving the
// zero-allocation, bit-identical hot path.
func (eng *Engine) SetStop(stop *par.Stop) { eng.stop = stop }

// Close releases the engine's worker pool (unless it was supplied via
// Options.Pool, in which case its owner closes it). The engine must not
// be used afterwards. Idempotent.
func (eng *Engine) Close() {
	if eng.ownsPool {
		eng.pool.Close()
	}
}

// EverSwappedFraction returns the fraction of edges that have been in a
// successful swap so far (0 when tracking is disabled).
func (eng *Engine) EverSwappedFraction() float64 {
	if len(eng.swapped) == 0 {
		return 0
	}
	return float64(eng.swappedCount) / float64(len(eng.swapped))
}

// Step runs one full swap iteration and returns its statistics.
func (eng *Engine) Step() IterStats {
	stats, _ := eng.step()
	return stats
}

// clearTable restores the edge table and writer counters after an
// abandoned iteration, so the next Step (or a Reset) finds the same
// clean state a completed iteration leaves.
func (eng *Engine) clearTable() {
	if eng.table == nil {
		// Table-less cells (multigraph-stub) have nothing to restore.
		return
	}
	par.Execute(eng.pool, eng.table.NumSlots(), eng.p, eng.clearBody)
	for _, w := range eng.writers {
		w.Reset()
	}
}

// step runs one swap iteration, reporting whether the stop flag
// interrupted it. An interrupted iteration keeps whatever partial work
// committed (every committed swap is individually valid, so the edge
// list stays degree- and simplicity-preserving), restores the hash
// table, and reports no statistics. The loop bodies poll an attached
// stop flag every few thousand indices, with or without a recorder,
// so cancellation latency is bounded by a poll interval.
//
//nullgraph:hotpath
func (eng *Engine) step() (IterStats, bool) {
	if eng.vertexMH {
		return eng.stepVertex()
	}
	if eng.connMode {
		return eng.stepConnected()
	}
	m := len(eng.el.Edges)
	it := eng.iteration
	eng.iteration++
	if m < 2 {
		return IterStats{}, eng.stop.Stopped()
	}
	pool := eng.pool
	stop := eng.stop
	if stop.Stopped() {
		// Nothing touched yet: the table is still clean.
		return IterStats{}, true
	}

	// Phase 1: register the current edge set (skipped for cells whose
	// acceptance rule never consults the table).
	if eng.useTable {
		par.Execute(pool, m, eng.p, eng.registerBody)
		if stop.Stopped() {
			eng.clearTable()
			return IterStats{}, true
		}
	}

	// Phase 2: permute — the targets in parallel, then one serial
	// apply on this goroutine. The swapped flags follow under the same
	// targets so flag k keeps following edge k.
	eng.permSeed = permSeedFor(eng.opt.Seed, it)
	par.Execute(pool, m, eng.p, eng.targetsBody)
	if stop.Stopped() {
		eng.clearTable()
		return IterStats{}, true
	}
	permute.ApplyStop(eng.el.Edges, eng.h, stop)
	if eng.swapped != nil {
		// A stop between the two applies leaves the flags lagging the
		// edges; acceptable, because an interrupted sample's tracking
		// state is discarded (the run ends, and Reset clears it).
		permute.ApplyStop(eng.swapped, eng.h, stop)
	}
	if stop.Stopped() {
		eng.clearTable()
		return IterStats{}, true
	}

	// Phase 3: propose swaps on adjacent disjoint pairs; the directed
	// chain then proposes reversals of disjoint triples, against the
	// same table.
	pairs := m / 2
	eng.sweepSeed = sweepSeedFor(eng.opt.Seed, it)
	stats := IterStats{Attempts: int64(pairs), Successes: eng.propose(pairs, eng.sweepBody)}
	if eng.rule == acceptDirected {
		stats.Attempts += int64(m / 3)
		stats.Successes += eng.propose(m/3, eng.trianglesBody)
	}
	if eng.swapped != nil {
		stats.EverSwapped = eng.EverSwappedFraction()
	}
	if stop.Stopped() {
		eng.clearTable()
		return IterStats{}, true
	}

	// Phase 4: reset the table for the next iteration — a streaming
	// parallel sweep (the measured winner at swap occupancy; see the
	// hashtable package doc), with the deterministic load check at this
	// quiescent point.
	if eng.useTable {
		eng.table.CheckLoad(eng.writers)
		eng.clearTable()
	}
	if eng.rec != nil {
		// Quiescent point: all workers joined, so aggregating and
		// resetting their cells races with nothing.
		eng.rec.FlushIteration(stats.Attempts, stats.Successes, stats.EverSwapped)
	}
	return stats, false
}

// propose runs a proposal phase over n pairs or triples and returns
// its committed moves, folding the workers' newly set swapped flags
// into the running count.
func (eng *Engine) propose(n int, body func(w int, r par.Range)) int64 {
	for w := range eng.successes {
		eng.successes[w].V = 0
		eng.newly[w].V = 0
	}
	par.Execute(eng.pool, n, eng.p, body)
	var successes int64
	for w := range eng.successes {
		successes += eng.successes[w].V
		eng.swappedCount += eng.newly[w].V
	}
	return successes
}

// counters returns worker w's observability cell, or nil when the
// parallel bodies record nothing.
func (eng *Engine) counters(w int) *obs.Counters {
	if obs.Enabled && eng.probed {
		return eng.rec.Cell(w)
	}
	return nil
}

// registerBlock and proposeBlock are the stop-poll intervals of the
// register phase (in keys) and of the proposal phases (in pairs or
// triples). Each phase polls once per block in an outer loop, so the
// per-index loops carry no poll branch. subBlock is the table batch
// inside a block, in pairs (the register phase batches 2*subBlock
// keys); both block sizes are multiples of it.
const (
	registerBlock = 8192
	proposeBlock  = 2048
	subBlock      = 256
)

// batch is one worker's sub-block buffer, about 10 KiB. The register
// phase fills keys with edge keys. The sweep fills it with one
// sub-block's surviving proposals: the t-th proposes edges props[2t]
// and props[2t+1] (keys keys[2t] and keys[2t+1]) for pair pair[t], and
// fresh[t] is the table's verdict on it.
type batch struct {
	keys  [2 * subBlock]uint64
	props [2 * subBlock]graph.Edge
	pair  [subBlock]int
	fresh [subBlock]bool
}

// register is phase 1 on worker w's chunk: insert every current edge
// into the table. The plain path packs the keys of 2*subBlock edges at
// a time into the worker's batch and inserts them with one table call;
// with a counters cell each insert is probed on its own and its probe
// length filed. The directed rule inserts ordered arc keys. The stop
// flag is polled once per block, outside the per-key loops.
//
//nullgraph:hotpath
func (eng *Engine) register(w int, r par.Range) {
	wtr := eng.writers[w]
	cell := eng.counters(w)
	stop := eng.stop
	ordered := eng.rule == acceptDirected
	edges := eng.el.Edges
	keys := eng.batches[w].keys[:]
	//nullgraph:cancelable
	for lo := r.Begin; lo < r.End && !stop.Stopped(); lo += registerBlock {
		block := edges[lo:min(lo+registerBlock, r.End)]
		if cell != nil {
			for _, e := range block {
				_, probes := wtr.TestAndSetProbed(e.Key())
				cell.RecordProbe(probes)
			}
			continue
		}
		for len(block) > 0 {
			sub := block[:min(len(block), len(keys))]
			block = block[len(sub):]
			if ordered {
				for t, e := range sub {
					keys[t] = arcKey(e)
				}
			} else {
				for t, e := range sub {
					keys[t] = e.Key()
				}
			}
			wtr.InsertKeys(keys[:len(sub)])
		}
	}
}

// targets is phase 2's target generation on worker w's chunk.
func (eng *Engine) targets(w int, r par.Range) {
	permute.FillTargetsStop(eng.h, eng.permSeed, w, r.Begin, r.End, eng.stop)
}

// sweep is phase 3 on worker w's chunk of pairs: each adjacent pair
// (E[2k], E[2k+1]) proposes the coin's rewiring, and the engine's
// acceptance rule (policy.go) decides whether it commits; under the
// directed rule the coin is the lazy coin instead. Three
// loop-invariant values shape the loop: the rule, the worker's
// counters cell (nil without a recorder; otherwise every probe length
// and the rejection cause are filed), and the stop flag (polled once
// per proposeBlock pairs; nil never stops). Polling and
// recording never consume randomness, so every combination commits
// exactly the same swaps.
//
// Each block runs in sub-blocks of subBlock pairs, three steps each:
// compute the proposals that are not self-loops into the worker's
// batch, admit them with one TestAndSetPairs call (per key through
// rejectProbed with a recorder; all of them without a table), then
// commit the fresh ones. A proposal reads only its own pair, so
// computing a sub-block before committing any of it changes nothing,
// and the table sees the same keys in the same order as a per-pair
// loop.
//
//nullgraph:hotpath
func (eng *Engine) sweep(w int, r par.Range) {
	var src rng.Block
	src.Reseed(sweepWorkerSeed(eng.sweepSeed, w))
	edges := eng.el.Edges
	rule := eng.rule
	var wtr *hashtable.Writer
	if rule != acceptAll {
		wtr = eng.writers[w]
	}
	cell := eng.counters(w)
	stop := eng.stop
	swapped := eng.swapped
	directed := rule == acceptDirected
	rejectLoops := rule == acceptSimple || directed
	b := eng.batches[w]
	var local, newly int64
	//nullgraph:cancelable
	for lo := r.Begin; lo < r.End && !stop.Stopped(); lo += proposeBlock {
		hi := min(lo+proposeBlock, r.End)
		for sub := lo; sub < hi; sub += subBlock {
			n := 0
			for k := sub; k < min(sub+subBlock, hi); k++ {
				coin := src.Bool()
				var g, h graph.Edge
				var gk, hk uint64
				if directed {
					if coin {
						continue // the lazy coin: this pair proposes nothing
					}
					// The one legal exchange (u→v),(x→y) ⇒ (u→y),(x→v),
					// keyed as ordered arcs.
					a, c := edges[2*k], edges[2*k+1]
					g, h = graph.Edge{U: a.U, V: c.V}, graph.Edge{U: c.U, V: a.V}
					gk, hk = arcKey(g), arcKey(h)
				} else {
					g, h = rewirePair(edges[2*k], edges[2*k+1], coin)
					gk, hk = g.Key(), h.Key()
				}
				if rejectLoops && (g.IsLoop() || h.IsLoop()) {
					if cell != nil {
						cell.RejectSelfLoop++
					}
					continue
				}
				b.pair[n] = k
				b.props[2*n], b.props[2*n+1] = g, h
				b.keys[2*n], b.keys[2*n+1] = gk, hk
				n++
			}
			fresh := b.fresh[:n]
			switch {
			case wtr == nil:
				for t := range fresh {
					fresh[t] = true
				}
			case cell != nil:
				for t := range fresh {
					fresh[t] = !rejectProbed(wtr, cell, b.keys[2*t], b.keys[2*t+1])
				}
			default:
				// A rejected h leaves g registered: harmless for
				// correctness (it only suppresses re-proposals of g this
				// iteration).
				wtr.TestAndSetPairs(b.keys[:2*n], fresh)
			}
			for t, ok := range fresh {
				if !ok {
					continue
				}
				i := 2 * b.pair[t]
				edges[i], edges[i+1] = b.props[2*t], b.props[2*t+1]
				if swapped != nil {
					newly += markSwapped(swapped, i) + markSwapped(swapped, i+1)
				}
				local++
			}
		}
	}
	eng.successes[w].V = local
	eng.newly[w].V = newly
}

// triangles is the directed chain's second phase on worker w's chunk
// of triples: each adjacent triple (E[3k], E[3k+1], E[3k+2]) that forms
// a directed triangle u→v→w→u in this order is reversed, iff none of
// the reversed arcs is in the table. The table still holds every arc of
// this iteration plus the sweep's insertions — a conservative filter
// that can only reject, never corrupt. The stop flag is polled once per
// proposeBlock triples.
//
//nullgraph:hotpath
func (eng *Engine) triangles(w int, r par.Range) {
	wtr := eng.writers[w]
	stop := eng.stop
	edges := eng.el.Edges
	swapped := eng.swapped
	var local, newly int64
	//nullgraph:cancelable
	for lo := r.Begin; lo < r.End && !stop.Stopped(); lo += proposeBlock {
		hi := min(lo+proposeBlock, r.End)
		for k := lo; k < hi; k++ {
			i := 3 * k
			a, b, c := edges[i], edges[i+1], edges[i+2]
			if a.V != b.U || b.V != c.U || c.V != a.U {
				continue // not a directed triangle in this order
			}
			if a.U == b.U || b.U == c.U || a.U == c.U {
				continue // degenerate (repeated vertex)
			}
			ra, rb, rc := graph.Edge{U: a.V, V: a.U}, graph.Edge{U: b.V, V: b.U}, graph.Edge{U: c.V, V: c.U}
			if wtr.TestAndSet(arcKey(ra)) || wtr.TestAndSet(arcKey(rb)) || wtr.TestAndSet(arcKey(rc)) {
				continue
			}
			edges[i], edges[i+1], edges[i+2] = ra, rb, rc
			if swapped != nil {
				newly += markSwapped(swapped, i) + markSwapped(swapped, i+1) + markSwapped(swapped, i+2)
			}
			local++
		}
	}
	eng.successes[w].V = local
	eng.newly[w].V = newly
}

// markSwapped sets edge i's ever-swapped flag, returning 1 on the first
// transition and 0 otherwise.
func markSwapped(swapped []uint8, i int) int64 {
	if swapped[i] != 0 {
		return 0
	}
	swapped[i] = 1
	return 1
}

// clearChunk is phase 4 on worker w's share of the table's slots.
func (eng *Engine) clearChunk(_ int, r par.Range) {
	eng.table.ClearRange(r.Begin, r.End)
}

// Stopper decides, after each completed iteration, whether the chain
// has run long enough. Observe is called with the 0-based iteration
// index and that iteration's statistics; returning true ends the run.
// The swap layer knows nothing about convergence policy — adaptive
// monitors (internal/converge) plug in here, keeping this package free
// of any dependency on diagnostics.
type Stopper interface {
	Observe(it int, stats IterStats) bool
}

// UntilMixed is the paper's empirical mixing signal as a Stopper: it
// ends the run once every edge has been part of a successful swap. The
// engine must track swaps (Options.TrackSwapped); Run panics otherwise.
type UntilMixed struct{}

// Observe reports whether every edge has swapped at least once.
func (UntilMixed) Observe(_ int, stats IterStats) bool { return stats.EverSwapped >= 1.0 }

// Drive is the run loop of every swap chain. It calls step (one
// iteration, reporting whether the cooperative stop flag interrupted
// it) up to maxIterations times, hands each completed iteration to
// onIteration and then st (either may be nil), and ends early when the
// stop flag trips (Result.Stopped) or st fires. The boolean reports
// whether st ended the run.
func Drive(step func() (IterStats, bool), onIteration func(int, IterStats), maxIterations int, st Stopper) (Result, bool) {
	result := Result{PerIteration: make([]IterStats, 0, maxIterations)}
	for it := 0; it < maxIterations; it++ {
		stats, stopped := step()
		if stopped {
			result.Stopped = true
			return result, false
		}
		result.PerIteration = append(result.PerIteration, stats)
		result.TotalSuccesses += stats.Successes
		if onIteration != nil {
			onIteration(it, stats)
		}
		if st != nil && st.Observe(it, stats) {
			return result, true
		}
	}
	return result, false
}

// Run drives the engine for up to maxIterations iterations, ending
// early when st (if non-nil) fires or the stop flag trips. It returns
// the statistics and whether st ended the run. The engine keeps all of
// its buffers, so Run may follow a Reset.
func (eng *Engine) Run(maxIterations int, st Stopper) (Result, bool) {
	if _, ok := st.(UntilMixed); ok && eng.swapped == nil && len(eng.el.Edges) > 0 {
		panic("swap: UntilMixed requires Options.TrackSwapped")
	}
	return Drive(eng.step, eng.opt.OnIteration, maxIterations, st)
}

// Run performs opt.Iterations parallel double-edge swap iterations on el
// in place and returns per-iteration statistics: a one-shot wrapper
// over a single-use Engine.
func Run(el *graph.EdgeList, opt Options) Result {
	eng := NewEngine(el, opt)
	defer eng.Close()
	result, _ := eng.Run(opt.Iterations, nil)
	return result
}
