// Package converge implements an online convergence monitor for the
// double-edge swap chain — the adaptive alternative to a fixed scan
// count. The paper's discussion section leaves "how many iterations is
// enough" as an empirical question, and the survey literature (Greenhill
// 2022; Dutta–Fosdick–Clauset 2021) treats convergence diagnostics as
// the practical gate on swap-chain samplers. This package packages one
// such diagnostic as a cheap, allocation-light policy the engine can
// consult after every iteration.
//
// # Design
//
// A Monitor tracks two kinds of signals:
//
//   - Cheap per-iteration signals that the swap engine computes anyway:
//     the success rate (committed / attempted swaps, the paper's Fig. 6
//     signal) and the ever-swapped fraction (its empirical mixing
//     heuristic).
//   - A scalar graph statistic (degree assortativity or triangle count,
//     via a caller-supplied closure) evaluated only at geometrically
//     spaced checkpoint iterations, so the O(m) statistic never
//     dominates the O(m) iterations it is judging.
//
// At each checkpoint past Policy.Floor the Monitor applies a
// Geweke-style equality-of-means test between the first and second half
// of the retained checkpoint trace (burn-in discarded), plus a plateau
// test on the success rate. Hysteresis requires several consecutive
// converged checkpoints before the monitor declares convergence, which
// filters one-off coincidences of the z statistic.
//
// # Unbiasedness of the returned sample
//
// A subtlety of adaptive stopping: if the run ends at the exact
// iteration the diagnostic examined, the returned graph is conditioned
// on the diagnostic's verdict, which in principle biases the sample.
// The Monitor therefore never stops at the deciding checkpoint: once
// convergence (with hysteresis) is established at iteration t, the stop
// fires after iteration t+1 — one full sweep of ⌊m/2⌋ fresh proposals
// past the last state any test statistic saw. The statcheck
// uniformity gates (exact enumeration over small spaces) run with
// adaptive policies to keep this honest empirically.
//
// The monitor never fires before Policy.Floor iterations, structurally:
// enumerable-space uniformity floors stay intact no matter what the
// traces do.
package converge

import (
	"fmt"
	"math"

	"nullgraph/internal/mixing"
	"nullgraph/internal/obs"
	"nullgraph/internal/swap"
)

// Statistic selects the checkpoint trace the Geweke test runs on.
type Statistic int

const (
	// Assortativity tracks the degree correlation coefficient (default).
	// It is O(m) per checkpoint and sensitive to residual structure in
	// degree-degree space, where swap chains start far from the null.
	Assortativity Statistic = iota
	// Triangles tracks the global triangle count — more expensive per
	// checkpoint but directly the motif statistic null models calibrate.
	Triangles
	// SuccessRate uses the per-iteration swap success rate as the
	// checkpoint trace, costing nothing beyond the engine's own
	// counters. This is the only choice on the directed path, where no
	// cheap undirected statistic applies.
	SuccessRate
)

// String names the statistic.
func (s Statistic) String() string {
	switch s {
	case Assortativity:
		return "assortativity"
	case Triangles:
		return "triangles"
	case SuccessRate:
		return "success-rate"
	default:
		return fmt.Sprintf("Statistic(%d)", int(s))
	}
}

// Policy configures adaptive stopping. The zero value gets sane
// defaults from withDefaults; only Floor and Budget usually need
// setting. All fields are plain data so a Policy can cross API layers
// by value.
type Policy struct {
	// Statistic selects the checkpoint trace (default Assortativity).
	Statistic Statistic
	// Floor is the minimum number of completed iterations before any
	// adaptive stop may fire — the enumerable-space uniformity floor.
	// <= 0 defaults to DefaultFloor.
	Floor int
	// Budget is the hard iteration cap; the run stops there regardless
	// of convergence, with reason "budget". <= 0 defaults to
	// DefaultBudget.
	Budget int
	// Growth is the geometric checkpoint spacing factor (> 1). The k-th
	// checkpoint falls near FirstCheckpoint·Growth^k. <= 1.01 defaults
	// to 1.4.
	Growth float64
	// Z is the |z| threshold of the Geweke equality-of-means test on
	// the checkpoint trace; smaller is stricter (stops later). <= 0
	// defaults to 1.5.
	Z float64
	// Hysteresis is the number of consecutive converged checkpoints
	// required before the monitor declares convergence. <= 0 defaults
	// to 2.
	Hysteresis int
	// SuccessRateTol is the absolute tolerance on the change of the
	// mean success rate between consecutive checkpoint windows; the
	// plateau test passes when |Δ| <= SuccessRateTol. <= 0 defaults to
	// 0.05.
	SuccessRateTol float64
	// MinEverSwapped, when > 0, additionally requires the ever-swapped
	// fraction to reach this level before stopping (the paper's own
	// heuristic as a guard). Requires the engine to track swaps; 0
	// disables the guard.
	MinEverSwapped float64
}

// Defaults used by withDefaults.
const (
	DefaultFloor  = 8
	DefaultBudget = 256

	// firstCheckpoint is where the checkpoint schedule starts; earlier
	// iterations only accumulate cheap signals.
	firstCheckpoint = 4
	// minCheckpoints is the fewest checkpoint samples the Geweke test
	// will run on (below it the halves are too short to mean anything).
	minCheckpoints = 6
)

func (p Policy) withDefaults() Policy {
	if p.Floor <= 0 {
		p.Floor = DefaultFloor
	}
	if p.Budget <= 0 {
		p.Budget = DefaultBudget
	}
	if p.Budget < p.Floor {
		p.Budget = p.Floor
	}
	if p.Growth <= 1.01 {
		p.Growth = 1.4
	}
	if p.Z <= 0 {
		p.Z = 1.5
	}
	if p.Hysteresis <= 0 {
		p.Hysteresis = 2
	}
	if p.SuccessRateTol <= 0 {
		p.SuccessRateTol = 0.05
	}
	return p
}

// Checkpoint records one diagnostic evaluation. It is the RunReport's
// stop-checkpoint type (obs.StopCheckpoint) so outcomes serialize into
// reports without conversion; see that type for field docs.
type Checkpoint = obs.StopCheckpoint

// Outcome summarizes why and when a run stopped. It is the RunReport's
// stop section (obs.StopReport); see that type for field docs.
type Outcome = obs.StopReport

// Monitor is the online stopper. Construct with NewMonitor, feed it
// Observe once per completed iteration, and read Outcome afterwards.
// A Monitor is single-goroutine, like the engine loop it rides.
type Monitor struct {
	pol  Policy
	eval func() float64

	iter      int // completed iterations observed
	nextCheck int // iteration count that triggers the next checkpoint
	gap       float64

	// Per-window success-rate accumulation (since last checkpoint).
	srSum   float64
	srCount int
	lastSR  float64 // previous checkpoint's windowed success rate
	haveSR  bool

	trace       []float64 // checkpoint trace values
	checkpoints []Checkpoint
	streak      int
	pending     bool // converged; fire at the next Observe
	fired       bool
	reason      string
}

// NewMonitor builds a monitor for one run. eval returns the scalar
// graph statistic of the current graph; it is called only at checkpoint
// iterations. A nil eval forces Statistic == SuccessRate (the directed
// path), where the checkpoint trace is the windowed success rate and no
// graph evaluation ever happens.
func NewMonitor(pol Policy, eval func() float64) *Monitor {
	pol = pol.withDefaults()
	if eval == nil {
		pol.Statistic = SuccessRate
	}
	m := &Monitor{pol: pol, eval: eval}
	m.Reset()
	return m
}

// Policy returns the effective (defaulted) policy.
func (m *Monitor) Policy() Policy { return m.pol }

// Reset rearms the monitor for a fresh chain, keeping the policy and
// trace capacity. Sessions reuse one monitor across samples.
func (m *Monitor) Reset() {
	m.iter = 0
	m.nextCheck = firstCheckpoint
	m.gap = firstCheckpoint
	m.srSum, m.srCount = 0, 0
	m.lastSR, m.haveSR = 0, false
	m.trace = m.trace[:0]
	m.checkpoints = m.checkpoints[:0]
	m.streak = 0
	m.pending = false
	m.fired = false
	m.reason = ""
}

// Observe ingests one completed iteration's cheap signals and returns
// true when the run should stop. successRate is committed/attempted
// swaps of this iteration (0 when no attempts); everSwapped is the
// engine's ever-swapped fraction (0 when untracked).
func (m *Monitor) Observe(successRate, everSwapped float64) bool {
	m.iter++
	m.srSum += successRate
	m.srCount++

	// A convergence verdict from the previous checkpoint stops the run
	// now — one iteration after the last state the diagnostic examined,
	// so the returned graph was never conditioned on (see package doc).
	if m.pending {
		m.fired = true
		m.reason = "converged"
		return true
	}
	if m.iter >= m.pol.Budget {
		m.fired = true
		m.reason = "budget"
		return true
	}
	if m.iter >= m.nextCheck {
		m.checkpoint(everSwapped)
		m.advanceSchedule()
	}
	return false
}

// advanceSchedule moves the next checkpoint geometrically, always by at
// least one iteration.
func (m *Monitor) advanceSchedule() {
	m.gap *= m.pol.Growth
	next := int(m.gap)
	if next <= m.nextCheck {
		next = m.nextCheck + 1
	}
	m.nextCheck = next
}

// checkpoint evaluates the statistic, runs the tests, and updates the
// hysteresis streak.
func (m *Monitor) checkpoint(everSwapped float64) {
	sr := 0.0
	if m.srCount > 0 {
		sr = m.srSum / float64(m.srCount)
	}
	m.srSum, m.srCount = 0, 0

	stat := sr
	if m.eval != nil {
		stat = m.eval()
	}
	m.trace = append(m.trace, stat)

	z := gewekeZ(m.trace)
	tau := 1.0
	if len(m.trace) >= minCheckpoints {
		tau = mixing.IntegratedTime(m.trace)
	}

	converged := m.iter >= m.pol.Floor &&
		!math.IsNaN(z) && math.Abs(z) <= m.pol.Z &&
		(!m.haveSR || math.Abs(sr-m.lastSR) <= m.pol.SuccessRateTol) &&
		(m.pol.MinEverSwapped <= 0 || everSwapped >= m.pol.MinEverSwapped)
	m.lastSR, m.haveSR = sr, true

	if converged {
		m.streak++
	} else {
		m.streak = 0
	}
	if m.streak >= m.pol.Hysteresis {
		m.pending = true
	}

	zRec := z
	if math.IsNaN(zRec) {
		zRec = 0
	}
	m.checkpoints = append(m.checkpoints, Checkpoint{
		Iteration:   m.iter,
		Stat:        stat,
		SuccessRate: sr,
		EverSwapped: everSwapped,
		Z:           zRec,
		Tau:         tau,
		Converged:   converged,
	})
}

// Outcome summarizes the run so far. Call after the engine loop ends;
// if the monitor never fired, the caller ran out of budget (or was
// canceled) and the reason reflects that.
func (m *Monitor) Outcome() Outcome {
	reason := m.reason
	if reason == "" {
		reason = "budget"
	}
	cps := make([]Checkpoint, len(m.checkpoints))
	copy(cps, m.checkpoints)
	return Outcome{
		Policy:      "adaptive",
		Statistic:   m.pol.Statistic.String(),
		Reason:      reason,
		Iterations:  m.iter,
		Floor:       m.pol.Floor,
		Budget:      m.pol.Budget,
		Checkpoints: cps,
	}
}

// swapStopper adapts a Monitor to swap.Stopper.
type swapStopper struct{ m *Monitor }

func (s swapStopper) Observe(_ int, stats swap.IterStats) bool {
	sr := 0.0
	if stats.Attempts > 0 {
		sr = float64(stats.Successes) / float64(stats.Attempts)
	}
	return s.m.Observe(sr, stats.EverSwapped)
}

// Stopper returns m as the stopper of a swap chain's run loop
// (swap.Drive), feeding it each iteration's success rate and
// ever-swapped fraction. The adapter holds only m, so the conversion
// does not allocate.
func (m *Monitor) Stopper() swap.Stopper { return swapStopper{m} }

// FixedStop is the stop record of a run without a monitor: a fixed
// budget of iterations, or — with untilMixed — the paper's
// ever-swapped heuristic, which either mixed or ran out of budget.
func FixedStop(iterations int, untilMixed, mixed bool) *Outcome {
	reason := "scans"
	if untilMixed {
		reason = "budget"
		if mixed {
			reason = "mixed"
		}
	}
	return &Outcome{Policy: "fixed", Reason: reason, Iterations: iterations}
}

// gewekeZ computes the equality-of-means z statistic between the first
// and second half of the trace after discarding the first quarter as
// burn-in. It returns NaN when fewer than minCheckpoints samples exist.
// A zero-variance (constant) trace compares equal: z = 0.
func gewekeZ(trace []float64) float64 {
	if len(trace) < minCheckpoints {
		return math.NaN()
	}
	rest := trace[len(trace)/4:]
	half := len(rest) / 2
	a, b := rest[:half], rest[len(rest)-half:]
	ma, va := meanVar(a)
	mb, vb := meanVar(b)
	se := math.Sqrt(va/float64(len(a)) + vb/float64(len(b)))
	if se == 0 {
		if ma == mb {
			return 0
		}
		return math.Inf(1)
	}
	return (ma - mb) / se
}

func meanVar(s []float64) (mean, variance float64) {
	n := float64(len(s))
	for _, v := range s {
		mean += v
	}
	mean /= n
	for _, v := range s {
		variance += (v - mean) * (v - mean)
	}
	variance /= n
	return mean, variance
}
