// Package obs is the chain-health observability layer: per-worker,
// cache-line-padded counters and fixed-bucket histograms that hot loops
// update without any synchronization, aggregated at quiescent points
// (end of a swap iteration, end of a generation phase) into a
// serializable RunReport.
//
// The paper's claims are all statistical — swap acceptance behaviour
// (§III-A, Fig. 4), per-phase cost (Fig. 6), hash-table probing cost
// (§VIII ablation) — so the engine exposes them as first-class counters:
// acceptance/rejection reasons split by cause, probe-length
// distributions, edge-skip draw counts per sample space, and the
// per-iteration ever-swapped fraction the paper uses as its empirical
// mixing signal.
//
// # Cost model
//
// Instrumentation is opt-in per run and free when disabled, on two
// levels:
//
//   - Run time: a nil *Recorder disables everything. The swap engine's
//     loop bodies take the worker's Counters cell as a loop-invariant
//     value that is nil without a recorder, so the plain path adds one
//     well-predicted branch per proposal and no counter write, load or
//     allocation (locked by TestStepDoesNotAllocate and the CI alloc
//     budget).
//   - Compile time: building with `-tags nullgraph_noobs` sets the
//     package constant Enabled to false; every `obs.Enabled && rec !=
//     nil` guard becomes constant-false and the instrumented branches
//     are dead-code-eliminated.
//
// When enabled, hot loops touch only their own worker's Counters cell
// (cache-line padded, no false sharing, no atomics); cross-worker
// aggregation happens once per iteration at the quiescent point, O(p)
// per counter.
package obs

// ProbeBuckets is the number of probe-length histogram buckets. Bucket
// i counts TestAndSet calls whose probe sequence visited exactly i+1
// slots; the last bucket absorbs sequences of >= ProbeBuckets slots.
// At the swap engine's <= 25% table occupancy the expected probe length
// is ~1.3 slots, so 16 buckets cover the distribution with room to make
// pathological clustering (the §VIII linear-vs-quadratic ablation's
// subject) visible in the tail.
const ProbeBuckets = 16

// Counters is one worker's private counter block. Hot loops increment
// fields directly — no atomics — because each worker owns exactly one
// cell; the trailing pad keeps neighbouring cells in a []Counters off
// each other's cache lines, same discipline as par.Cell.
//
//nullgraph:padded
type Counters struct {
	// RejectSelfLoop counts proposals rejected because an exchanged
	// edge would be a self-loop.
	RejectSelfLoop int64
	// RejectDuplicate counts proposals rejected because the first new
	// edge was already present in the edge table.
	RejectDuplicate int64
	// RejectPartnerDuplicate counts proposals whose first new edge was
	// fresh but whose partner edge was already present.
	RejectPartnerDuplicate int64
	// Probes is the probe-length histogram of this worker's TestAndSet
	// calls (see ProbeBuckets).
	Probes [ProbeBuckets]int64

	// Pad the 152 bytes of counters to 256 (a cache-line multiple) so
	// adjacent cells in a []Counters never share a line.
	_ [104]byte
}

// RecordProbe files one TestAndSet probe-sequence length (>= 1) into
// the histogram.
//
//nullgraph:hotpath
func (c *Counters) RecordProbe(probes int) {
	if probes < 1 {
		probes = 1
	}
	if probes > ProbeBuckets {
		probes = ProbeBuckets
	}
	c.Probes[probes-1]++
}

// Recorder accumulates one run's observability state: the per-worker
// cells hot loops write and the RunReport they aggregate into. A
// Recorder belongs to one run at a time and is not safe for concurrent
// method calls; hot-loop writes go through Cell(w), everything else
// happens at quiescent points (the same externally-ordered points the
// engines already synchronize on).
type Recorder struct {
	cells  []Counters
	report RunReport
}

// NewRecorder returns an empty recorder. Attach it via the Recorder
// field of swap.Options / core.Options (or nullgraph.Options.
// CollectReport) and read the result with Report.
func NewRecorder() *Recorder {
	return &Recorder{report: RunReport{Schema: SchemaVersion}}
}

// StartRun resets the swap section of the report (iterations, totals,
// probe histogram) and sizes the per-worker cells for a run of the
// given width. Generation-phase sections already recorded (edge-skip,
// phase times) are preserved, so a pipeline can record generation first
// and bind the swap engine after. Called by the swap engine when it
// (re)binds an edge list; a rebound engine therefore reports its
// latest run.
func (r *Recorder) StartRun(seed uint64, workers, edges int) {
	if cap(r.cells) < workers {
		r.cells = make([]Counters, workers)
	}
	r.cells = r.cells[:workers]
	for w := range r.cells {
		r.cells[w] = Counters{}
	}
	r.report.Seed = seed
	r.report.Workers = workers
	r.report.Edges = edges
	r.report.Iterations = r.report.Iterations[:0]
	r.report.SwapTotals = SwapTotals{}
	if r.report.ProbeHistogram == nil {
		r.report.ProbeHistogram = make([]int64, ProbeBuckets)
	}
	clear(r.report.ProbeHistogram)
}

// Cell returns worker w's private counter block. The pointer is stable
// until the next StartRun with a larger width.
func (r *Recorder) Cell(w int) *Counters { return &r.cells[w] }

// Workers returns the width the recorder is currently sized for.
func (r *Recorder) Workers() int { return len(r.cells) }

// FlushIteration aggregates every worker cell into one iteration record
// and resets the cells — the engine calls it at the iteration's
// quiescent point, so no worker is concurrently writing. Probe counts
// accumulate into the run-wide histogram; rejection counters become the
// iteration's split.
func (r *Recorder) FlushIteration(attempts, successes int64, everSwapped float64) {
	it := IterationReport{Attempts: attempts, Successes: successes, EverSwapped: everSwapped}
	for w := range r.cells {
		c := &r.cells[w]
		it.RejectSelfLoop += c.RejectSelfLoop
		it.RejectDuplicate += c.RejectDuplicate
		it.RejectPartnerDuplicate += c.RejectPartnerDuplicate
		c.RejectSelfLoop, c.RejectDuplicate, c.RejectPartnerDuplicate = 0, 0, 0
		for b := range c.Probes {
			r.report.ProbeHistogram[b] += c.Probes[b]
			c.Probes[b] = 0
		}
	}
	r.report.Iterations = append(r.report.Iterations, it)
	t := &r.report.SwapTotals
	t.Iterations++
	t.Attempts += it.Attempts
	t.Successes += it.Successes
	t.RejectSelfLoop += it.RejectSelfLoop
	t.RejectDuplicate += it.RejectDuplicate
	t.RejectPartnerDuplicate += it.RejectPartnerDuplicate
	t.FinalEverSwapped = everSwapped
}

// SetEdgeSkip installs the edge-generation section: one entry per
// class-pair sample space, with chunk contributions already merged.
// Totals are derived here so callers only aggregate.
func (r *Recorder) SetEdgeSkip(spaces []SpaceReport) {
	rep := &EdgeSkipReport{Spaces: spaces}
	for _, s := range spaces {
		rep.TotalPairs += s.Pairs
		rep.TotalDraws += s.Draws
		rep.TotalEdges += s.Edges
	}
	r.report.EdgeSkip = rep
}

// SetPhases installs the pipeline phase wall times (nanoseconds in the
// report; pass zero for phases a run did not execute).
func (r *Recorder) SetPhases(probabilities, edgeGeneration, swapping int64) {
	r.report.Phases = &PhaseReport{
		ProbabilitiesNs:  probabilities,
		EdgeGenerationNs: edgeGeneration,
		SwappingNs:       swapping,
	}
}

// SetStop installs the stopping-decision section (schema v2). The
// pointer is stored as-is; callers hand over ownership.
func (r *Recorder) SetStop(st *StopReport) {
	r.report.Stop = st
}

// SetSpace records the sampling space's canonical spelling (schema v3).
func (r *Recorder) SetSpace(space string) {
	r.report.Space = space
}

// SetSimplify installs the simplification section (schema v3). The
// pointer is stored as-is; callers hand over ownership.
func (r *Recorder) SetSimplify(s *SimplifyReport) {
	r.report.Simplify = s
}

// SetConnectivity installs the connected-sampling section (schema v4).
// The pointer is stored as-is; callers hand over ownership, and pass
// nil to clear a previous sample's section.
func (r *Recorder) SetConnectivity(c *ConnectivityReport) {
	r.report.Connectivity = c
}

// Report returns the aggregated run report. The pointer aliases the
// recorder's state: read it only after the run is finished (or between
// Steps), and treat it as invalidated by the next StartRun.
func (r *Recorder) Report() *RunReport { return &r.report }
