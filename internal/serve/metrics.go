package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nullgraph"
)

// Metrics aggregates the service's counters and renders them in the
// Prometheus text exposition format. Everything on the request path is
// an atomic update; the mutex-protected code map is touched once per
// response. The per-phase time and stop-reason series surface
// RunReport v2's observability (Result.Phases, Result.Stop) at the
// service boundary, so a scrape shows where generation wall time goes
// and how swap phases are ending without any per-request report files.
type Metrics struct {
	// inFlight is the number of requests currently holding an
	// admission slot.
	inFlight atomic.Int64
	// queueRejections counts 429s from the bounded admission queue.
	queueRejections atomic.Int64
	// deadlineMisses counts 504s — requests whose generation deadline
	// expired server-side.
	deadlineMisses atomic.Int64
	// edgesGenerated totals edges across successful responses.
	edgesGenerated atomic.Int64
	// samplesServed counts successful generation calls.
	samplesServed atomic.Int64
	// generatePanics counts requests whose generation or encoding
	// panicked on the handler goroutine; each retired its engine.
	generatePanics atomic.Int64

	// Phase wall time totals in nanoseconds (RunReport v2 PhaseReport
	// quantities, summed across requests).
	probabilitiesNs  atomic.Int64
	edgeGenerationNs atomic.Int64
	swappingNs       atomic.Int64

	// Stop decisions by StopReport.Reason.
	stopConverged atomic.Int64
	stopBudget    atomic.Int64
	stopScans     atomic.Int64
	stopMixed     atomic.Int64
	stopOther     atomic.Int64

	mu    sync.Mutex
	codes map[int]int64
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{codes: make(map[int]int64)}
}

// ObserveResponse records one finished request's status code.
func (m *Metrics) ObserveResponse(code int) {
	m.mu.Lock()
	m.codes[code]++
	m.mu.Unlock()
	switch code {
	case 429:
		m.queueRejections.Add(1)
	case 504:
		m.deadlineMisses.Add(1)
	}
}

// ObserveResult folds one successful generation's RunReport v2 data —
// phase times and the stop decision — into the service totals.
func (m *Metrics) ObserveResult(res *nullgraph.Result) {
	m.samplesServed.Add(1)
	m.edgesGenerated.Add(int64(len(res.Graph.Edges)))
	m.probabilitiesNs.Add(int64(res.Phases.Probabilities))
	m.edgeGenerationNs.Add(int64(res.Phases.EdgeGeneration))
	m.swappingNs.Add(int64(res.Phases.Swapping))
	if res.Stop == nil {
		return
	}
	switch res.Stop.Reason {
	case "converged":
		m.stopConverged.Add(1)
	case "budget":
		m.stopBudget.Add(1)
	case "scans":
		m.stopScans.Add(1)
	case "mixed":
		m.stopMixed.Add(1)
	default:
		m.stopOther.Add(1)
	}
}

// RequestStarted marks a request entering the generation section;
// the returned func marks it leaving.
func (m *Metrics) RequestStarted() func() {
	m.inFlight.Add(1)
	return func() { m.inFlight.Add(-1) }
}

// DeadlineMisses returns the 504 count (used by tests and loadgen
// assertions).
func (m *Metrics) DeadlineMisses() int64 { return m.deadlineMisses.Load() }

// seconds renders a nanosecond total as Prometheus seconds.
func seconds(ns int64) float64 { return time.Duration(ns).Seconds() }

// WritePrometheus renders the metrics in the Prometheus text format.
// The schema is documented in DESIGN.md §13; series names are stable.
func (m *Metrics) WritePrometheus(w io.Writer, pool *Pool) error {
	m.mu.Lock()
	codes := make([]int, 0, len(m.codes))
	for c := range m.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	counts := make([]int64, len(codes))
	for i, c := range codes {
		counts[i] = m.codes[c]
	}
	m.mu.Unlock()

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP nullgraphd_requests_total Finished HTTP requests by status code.\n")
	p("# TYPE nullgraphd_requests_total counter\n")
	for i, c := range codes {
		p("nullgraphd_requests_total{code=\"%d\"} %d\n", c, counts[i])
	}
	p("# HELP nullgraphd_in_flight_requests Requests currently holding an admission slot.\n")
	p("# TYPE nullgraphd_in_flight_requests gauge\n")
	p("nullgraphd_in_flight_requests %d\n", m.inFlight.Load())
	p("# HELP nullgraphd_queue_rejections_total Requests rejected (429) by the bounded admission queue.\n")
	p("# TYPE nullgraphd_queue_rejections_total counter\n")
	p("nullgraphd_queue_rejections_total %d\n", m.queueRejections.Load())
	p("# HELP nullgraphd_deadline_misses_total Requests whose generation deadline expired (504).\n")
	p("# TYPE nullgraphd_deadline_misses_total counter\n")
	p("nullgraphd_deadline_misses_total %d\n", m.deadlineMisses.Load())
	p("# HELP nullgraphd_generate_panics_total Requests whose generation or encoding panicked (engine retired, 500 or aborted response).\n")
	p("# TYPE nullgraphd_generate_panics_total counter\n")
	p("nullgraphd_generate_panics_total %d\n", m.generatePanics.Load())
	p("# HELP nullgraphd_samples_served_total Successful generation calls.\n")
	p("# TYPE nullgraphd_samples_served_total counter\n")
	p("nullgraphd_samples_served_total %d\n", m.samplesServed.Load())
	p("# HELP nullgraphd_edges_generated_total Edges across successful responses.\n")
	p("# TYPE nullgraphd_edges_generated_total counter\n")
	p("nullgraphd_edges_generated_total %d\n", m.edgesGenerated.Load())
	p("# HELP nullgraphd_phase_seconds_total Pipeline wall time by phase (RunReport v2 phases, summed over requests).\n")
	p("# TYPE nullgraphd_phase_seconds_total counter\n")
	p("nullgraphd_phase_seconds_total{phase=\"probabilities\"} %g\n", seconds(m.probabilitiesNs.Load()))
	p("nullgraphd_phase_seconds_total{phase=\"edge_generation\"} %g\n", seconds(m.edgeGenerationNs.Load()))
	p("nullgraphd_phase_seconds_total{phase=\"swapping\"} %g\n", seconds(m.swappingNs.Load()))
	p("# HELP nullgraphd_stop_decisions_total Swap-phase stop decisions by RunReport v2 stop reason.\n")
	p("# TYPE nullgraphd_stop_decisions_total counter\n")
	p("nullgraphd_stop_decisions_total{reason=\"converged\"} %d\n", m.stopConverged.Load())
	p("nullgraphd_stop_decisions_total{reason=\"budget\"} %d\n", m.stopBudget.Load())
	p("nullgraphd_stop_decisions_total{reason=\"scans\"} %d\n", m.stopScans.Load())
	p("nullgraphd_stop_decisions_total{reason=\"mixed\"} %d\n", m.stopMixed.Load())
	p("nullgraphd_stop_decisions_total{reason=\"other\"} %d\n", m.stopOther.Load())
	if pool != nil {
		keys, idle := pool.Stats()
		p("# HELP nullgraphd_pool_keys Distinct (distribution, options) fingerprints seen.\n")
		p("# TYPE nullgraphd_pool_keys gauge\n")
		p("nullgraphd_pool_keys %d\n", keys)
		p("# HELP nullgraphd_pool_idle_engines Warm engine sessions parked in the pool (at most one per admission slot).\n")
		p("# TYPE nullgraphd_pool_idle_engines gauge\n")
		p("nullgraphd_pool_idle_engines %d\n", idle)
	}
	return err
}
