package obs

import (
	"encoding/json"
	"io"
	"os"

	"nullgraph/internal/atomicfile"
)

// SchemaVersion identifies the RunReport JSON schema. Consumers
// (regression dashboards, CI deltas) should reject reports whose schema
// field they do not recognize; additive changes bump the trailing
// version. The schema is documented in DESIGN.md §8.
// v2 added the stop section (adaptive stopping decisions).
// v3 added the sampling-space field and the simplification section.
// v4 added the connectivity section (connected-sampling check outcomes).
const SchemaVersion = "nullgraph/run-report/v4"

// IterationReport is one swap iteration's acceptance accounting.
// Attempts = Successes + the three rejection counters + proposals
// short-circuited before any check (none today), so the split is
// exhaustive.
type IterationReport struct {
	Attempts               int64 `json:"attempts"`
	Successes              int64 `json:"successes"`
	RejectSelfLoop         int64 `json:"reject_self_loop"`
	RejectDuplicate        int64 `json:"reject_duplicate"`
	RejectPartnerDuplicate int64 `json:"reject_partner_duplicate"`
	// EverSwapped is the fraction of edges that have been in at least
	// one successful swap so far — the paper's empirical mixing signal.
	// Zero when the engine runs without TrackSwapped.
	EverSwapped float64 `json:"ever_swapped"`
}

// SwapTotals sums the iteration records.
type SwapTotals struct {
	Iterations             int   `json:"iterations"`
	Attempts               int64 `json:"attempts"`
	Successes              int64 `json:"successes"`
	RejectSelfLoop         int64 `json:"reject_self_loop"`
	RejectDuplicate        int64 `json:"reject_duplicate"`
	RejectPartnerDuplicate int64 `json:"reject_partner_duplicate"`
	// FinalEverSwapped is the last iteration's mixing fraction.
	FinalEverSwapped float64 `json:"final_ever_swapped"`
}

// SpaceReport is one class-pair sample space of the edge-skipping
// phase (Algorithm IV.2): its index-space size, the number of geometric
// skip draws spent on it, and the edges it emitted. Spaces with zero
// probability are skipped by the generator and absent here.
type SpaceReport struct {
	// ClassI and ClassJ are the degree-class indices, ClassI <= ClassJ.
	ClassI int `json:"class_i"`
	ClassJ int `json:"class_j"`
	// Probability is the per-pair Bernoulli probability of the space.
	Probability float64 `json:"probability"`
	// Pairs is the number of candidate vertex pairs in the space.
	Pairs int64 `json:"pairs"`
	// Draws is the number of geometric skip lengths sampled (0 in the
	// degenerate probability >= 1 path, which emits without drawing).
	Draws int64 `json:"draws"`
	// Edges is the number of edges the space emitted.
	Edges int64 `json:"edges"`
}

// EdgeSkipReport is the edge-generation section of a run report.
type EdgeSkipReport struct {
	Spaces     []SpaceReport `json:"spaces"`
	TotalPairs int64         `json:"total_pairs"`
	TotalDraws int64         `json:"total_draws"`
	TotalEdges int64         `json:"total_edges"`
}

// PhaseReport records per-phase wall time in nanoseconds (Fig. 6's
// quantities). Phases a run did not execute are zero.
type PhaseReport struct {
	ProbabilitiesNs  int64 `json:"probabilities_ns"`
	EdgeGenerationNs int64 `json:"edge_generation_ns"`
	SwappingNs       int64 `json:"swapping_ns"`
}

// StopCheckpoint is one adaptive-stopping diagnostic evaluation; see
// internal/converge for the semantics of each field.
type StopCheckpoint struct {
	// Iteration is the number of completed swap iterations at
	// evaluation time.
	Iteration int `json:"iteration"`
	// Stat is the checkpoint trace value (the monitored statistic, or
	// the windowed mean success rate on the success-rate trace).
	Stat float64 `json:"stat"`
	// SuccessRate is the mean success rate since the last checkpoint.
	SuccessRate float64 `json:"success_rate"`
	// EverSwapped is the ever-swapped fraction at this iteration (0
	// when untracked).
	EverSwapped float64 `json:"ever_swapped"`
	// Z is the Geweke equality-of-means statistic over the checkpoint
	// trace so far (0 until enough samples exist).
	Z float64 `json:"z"`
	// Tau is the integrated autocorrelation time of the checkpoint
	// trace so far (1 when too short to estimate).
	Tau float64 `json:"tau"`
	// Converged reports whether every enabled criterion held here.
	Converged bool `json:"converged"`
}

// StopReport records why and when the swap phase stopped — the v2
// schema addition. Fixed-scan runs carry policy "fixed" and no
// checkpoints; adaptive runs (Options.StopPolicy) carry the full
// diagnostic trail.
type StopReport struct {
	// Policy is "adaptive" for monitor-driven runs, "fixed" otherwise.
	Policy string `json:"policy"`
	// Statistic names the checkpoint trace of adaptive runs.
	Statistic string `json:"statistic,omitempty"`
	// Reason is "converged" (diagnostic fired), "budget" (adaptive cap
	// ran out), "scans" (fixed budget completed), or "mixed" (the
	// ever-swapped heuristic ended a MixUntilSwapped run).
	Reason string `json:"reason"`
	// Iterations is the number of completed swap iterations.
	Iterations int `json:"iterations"`
	// Floor and Budget echo the effective adaptive policy bounds.
	Floor  int `json:"floor,omitempty"`
	Budget int `json:"budget,omitempty"`
	// Checkpoints is the diagnostic trail of adaptive runs.
	Checkpoints []StopCheckpoint `json:"checkpoints,omitempty"`
}

// SimplifyReport records one targeted-simplification pass (schema v3;
// internal/simplify): the defect counts before and after, and the swap
// budget spent. Swaps <= InitialDefects always holds — each reducing
// swap removes at least one defect — so the section doubles as an
// auditable witness of the termination bound.
type SimplifyReport struct {
	// InitialDefects is self-loop instances plus multi-edge excess
	// instances before the pass.
	InitialDefects int `json:"initial_defects"`
	// ResidualDefects is the same count after the pass; nonzero only
	// when the realized degree sequence admits no simple graph.
	ResidualDefects int `json:"residual_defects"`
	// Swaps is the number of defect-reducing targeted swaps applied.
	Swaps int `json:"swaps"`
	// Neutral is the number of defect-neutral unsticking swaps applied.
	Neutral int `json:"neutral"`
	// Simple reports whether the edge list was simple after the pass.
	Simple bool `json:"simple"`
}

// ConnectivityReport records the connectivity-check outcome counters of
// a connected-sampling run (schema v4; internal/connected): how many
// proposals each tier of the Viger–Latapy check hierarchy resolved, and
// how many proposals were rejected for disconnecting the graph.
// FastPathHits / Proposals is the witness cache's hit rate.
type ConnectivityReport struct {
	// Proposals is the number of swaps submitted to the checker.
	Proposals int64 `json:"proposals"`
	// FastPathHits counts proposals accepted with no traversal (the
	// cached spanning-tree witness was untouched).
	FastPathHits int64 `json:"fast_path_hits"`
	// BoundedChecks counts bounded bidirectional searches;
	// BoundedConclusive those that resolved within budget.
	BoundedChecks     int64 `json:"bounded_checks"`
	BoundedConclusive int64 `json:"bounded_conclusive"`
	// FullChecks counts full-BFS fallbacks.
	FullChecks int64 `json:"full_checks"`
	// WitnessRebuilds counts full-BFS spanning-tree rebuilds after
	// accepted tree-touching swaps the local repair could not settle.
	WitnessRebuilds int64 `json:"witness_rebuilds"`
	// RejectedDisconnecting counts proposals rejected because they
	// would have disconnected the graph.
	RejectedDisconnecting int64 `json:"rejected_disconnecting"`
	// FullRechecks counts periodic belt-and-braces verifications.
	FullRechecks int64 `json:"full_rechecks"`
}

// RunReport is the serializable aggregate of one run's chain-health
// observability: per-iteration acceptance splits, the run-wide
// hash-table probe-length histogram, the edge-skip space accounting,
// and the pipeline phase times. With Workers == 1 and a fixed seed
// every counter is bit-reproducible; timings (Phases) are the only
// nondeterministic fields.
//
// The schemaver analyzer locks this struct (and everything reachable
// from it) against internal/analysis/schemas.lock: changing any field
// here or in a nested report type requires bumping SchemaVersion and
// regenerating the lock (`make lint-fix-schemas`).
//
//nullgraph:schema SchemaVersion
type RunReport struct {
	// Schema is SchemaVersion.
	Schema string `json:"schema"`
	// Seed is the swap phase's seed stream; Workers its parallel width;
	// Edges the edge count of the (last) bound edge list.
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	Edges   int    `json:"edges"`
	// Iterations has one record per swap iteration, in order.
	Iterations []IterationReport `json:"iterations"`
	SwapTotals SwapTotals        `json:"swap_totals"`
	// ProbeHistogram bucket i counts TestAndSet calls (edge
	// registration and proposal checks alike) whose probe sequence
	// visited i+1 slots; the final bucket is overflow.
	ProbeHistogram []int64 `json:"probe_length_histogram"`
	// EdgeSkip is present only for runs that executed the
	// edge-generation phase.
	EdgeSkip *EdgeSkipReport `json:"edge_skip,omitempty"`
	// Phases is present when the core pipeline drove the run.
	Phases *PhaseReport `json:"phases,omitempty"`
	// Stop records the stopping decision (schema v2); present when the
	// core pipeline drove the swap phase.
	Stop *StopReport `json:"stop,omitempty"`
	// Space is the sampling space's canonical spelling (schema v3);
	// empty reports predate the space matrix and mean "simple".
	Space string `json:"space,omitempty"`
	// Simplify records the targeted-simplification pass (schema v3);
	// present only when the pipeline ran one.
	Simplify *SimplifyReport `json:"simplify,omitempty"`
	// Connectivity records the connected-sampling check outcomes
	// (schema v4); present only for Connected runs.
	Connectivity *ConnectivityReport `json:"connectivity,omitempty"`
}

// WriteJSON writes the report as indented JSON with a trailing newline.
func (r *RunReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteReportFile writes the report to path ("-" = stdout). File
// outputs are atomic (temp + fsync + rename), so a killed run never
// leaves a truncated report.
func WriteReportFile(path string, r *RunReport) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	return atomicfile.Write(path, func(w io.Writer) error { return r.WriteJSON(w) })
}
