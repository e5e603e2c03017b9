package directed

import (
	"fmt"
	"time"

	"nullgraph/internal/converge"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
	"nullgraph/internal/rng"
	"nullgraph/internal/swap"
)

// Options configures the directed end-to-end pipeline.
type Options struct {
	Workers           int
	Seed              uint64
	SwapIterations    int
	MixUntilSwapped   bool
	MaxSwapIterations int
	// StopPolicy, when non-nil, replaces the fixed swap budget with the
	// adaptive convergence monitor. The directed chain has no wired
	// graph-statistic evaluator, so the monitored trace is always the
	// swap success rate regardless of StopPolicy.Statistic; Floor,
	// Budget, and the stationarity knobs apply as in the undirected
	// pipeline. Takes precedence over MixUntilSwapped and
	// SwapIterations; the outcome lands in Result.Stop.
	StopPolicy *converge.Policy
	// Stop, when non-nil, cancels cooperatively: between pipeline phases
	// and inside the swap phase every few thousand arcs. A tripped flag
	// makes Generate and Shuffle return par.ErrStopped; Shuffle's arc
	// list stays valid (joint degrees preserved) but under-mixed.
	Stop *par.Stop
}

// validate rejects a negative swap budget.
func (o Options) validate() error {
	if o.SwapIterations < 0 {
		return fmt.Errorf("directed: negative SwapIterations %d", o.SwapIterations)
	}
	return nil
}

func (o Options) maxSwapIterations() int {
	if o.MaxSwapIterations <= 0 {
		return 128
	}
	return o.MaxSwapIterations
}

// PhaseTimes records the directed pipeline's per-phase wall time.
type PhaseTimes struct {
	Probabilities time.Duration
	ArcGeneration time.Duration
	Swapping      time.Duration
}

// Total returns the end-to-end time.
func (p PhaseTimes) Total() time.Duration {
	return p.Probabilities + p.ArcGeneration + p.Swapping
}

// Result is the directed pipeline output.
type Result struct {
	Graph         *ArcList
	Probabilities *ProbMatrix
	Phases        PhaseTimes
	Swaps         SwapResult
	Mixed         bool
	// Stop records how the swap phase ended — fixed-budget reason or
	// the adaptive monitor's outcome with its checkpoint trail.
	Stop *obs.StopReport
}

// Generate draws a uniformly random simple digraph matching the joint
// (out, in) degree distribution in expectation: probabilities →
// directed edge-skipping → directed double-arc swaps.
func Generate(d *JointDistribution, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.OutStubs() != d.InStubs() {
		return nil, fmt.Errorf("directed: out stubs %d != in stubs %d (not a digraph sequence)",
			d.OutStubs(), d.InStubs())
	}
	if opt.Stop.Stopped() {
		return nil, par.ErrStopped
	}
	res := &Result{}
	start := time.Now()
	res.Probabilities = GenerateProbabilities(d, opt.Workers)
	res.Phases.Probabilities = time.Since(start)
	if opt.Stop.Stopped() {
		return nil, par.ErrStopped
	}

	start = time.Now()
	al, err := GenerateArcs(d, res.Probabilities, SkipOptions{Workers: opt.Workers, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	res.Phases.ArcGeneration = time.Since(start)
	res.Graph = al
	if opt.Stop.Stopped() {
		return nil, par.ErrStopped
	}

	start = time.Now()
	if stopped := res.runSwaps(al, opt); stopped {
		return nil, par.ErrStopped
	}
	res.Phases.Swapping = time.Since(start)
	return res, nil
}

// runSwaps drives the mixing phase shared by Generate and Shuffle,
// reporting whether the stop flag interrupted it.
func (res *Result) runSwaps(al *ArcList, opt Options) bool {
	sopt := SwapOptions{
		Workers:      opt.Workers,
		Seed:         rng.Mix64(opt.Seed) + 0xd15eed,
		TrackSwapped: opt.StopPolicy != nil || opt.MixUntilSwapped,
		Stop:         opt.Stop,
	}
	budget, st := opt.SwapIterations, Stopper(nil)
	var mon *converge.Monitor
	switch {
	case opt.StopPolicy != nil:
		// nil eval forces the monitor onto the success-rate trace; the
		// monitor also wants the ever-swapped signal, so tracking is on.
		mon = converge.NewMonitor(*opt.StopPolicy, nil)
		budget, st = mon.Policy().Budget, mon.Stopper()
	case opt.MixUntilSwapped:
		budget, st = opt.maxSwapIterations(), swap.UntilMixed{}
	}
	var fired bool
	res.Swaps, fired = NewSwapEngine(al, sopt).Run(budget, st)
	if mon != nil {
		out := mon.Outcome()
		res.Stop = &out
	} else {
		res.Mixed = fired
		res.Stop = converge.FixedStop(len(res.Swaps.PerIteration), opt.MixUntilSwapped, fired)
	}
	return res.Swaps.Stopped
}

// validateArcList is the input gate for the arc-list entry point,
// mirroring the undirected pipeline's validateEdgeList: the list must
// be non-nil and every endpoint must name a vertex in
// [0, NumVertices). Empty and single-arc lists are valid (the swap
// phase is then a no-op).
func validateArcList(al *ArcList) error {
	if al == nil {
		return fmt.Errorf("directed: nil arc list")
	}
	n := int32(al.NumVertices)
	for i, a := range al.Arcs {
		if a.From < 0 || a.To < 0 || a.From >= n || a.To >= n {
			return fmt.Errorf("directed: arc %d (%d->%d) out of range for %d vertices", i, a.From, a.To, al.NumVertices)
		}
	}
	return nil
}

// Shuffle mixes an existing digraph in place with double-arc swaps,
// validating the input like the undirected edge-list entry point. When
// opt.Stop trips mid-run it returns par.ErrStopped and al is left
// valid (in- and out-degrees preserved) but under-mixed.
func Shuffle(al *ArcList, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := validateArcList(al); err != nil {
		return nil, err
	}
	res := &Result{Graph: al}
	start := time.Now()
	if stopped := res.runSwaps(al, opt); stopped {
		return nil, par.ErrStopped
	}
	res.Phases.Swapping = time.Since(start)
	return res, nil
}
