package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"nullgraph"
	"nullgraph/internal/graph"
)

// Config sizes the service. Zero values pick production-sane defaults;
// see each field.
type Config struct {
	// Workers is the parallel width of each pooled engine. The default
	// (1) serves concurrency across requests, not within one: with one
	// engine per slot the machine is busy whenever there is traffic,
	// every response is bit-deterministic for its (seed, sample), and
	// no request can queue behind another's worker fan-out.
	Workers int
	// MaxConcurrent is the number of admission slots — requests
	// generating at once. <= 0 defaults to GOMAXPROCS. It also caps the
	// idle engines the pool keeps: no more engines can be busy at once
	// than there are slots, so more idle ones could never all be used.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; arrivals beyond it
	// are rejected with 429. <= 0 defaults to 4×MaxConcurrent.
	MaxQueue int
	// DefaultDeadline is the per-request generation deadline when the
	// client sends none. <= 0 defaults to 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. <= 0 defaults to
	// 5 minutes.
	MaxDeadline time.Duration
	// MaxBodyBytes caps the request body (the degree distribution).
	// <= 0 defaults to 32 MiB.
	MaxBodyBytes int64
	// Seed is the base seed used when a request does not send one.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	return c
}

// Server is the nullgraphd service core: admission gate, engine pool,
// and HTTP handlers. Create with New, mount Handler, Close on
// shutdown.
type Server struct {
	cfg     Config
	pool    *Pool
	metrics *Metrics
	// slots is the admission gate: holding a token = generating.
	slots chan struct{}
	// waiters counts requests blocked on slots; admission beyond
	// cfg.MaxQueue is refused.
	waiters atomic.Int64
	// generate runs one leased generation; tests replace it to inject
	// faults on the handler goroutine.
	generate func(*nullgraph.Engine, context.Context, *nullgraph.DegreeDistribution) (*nullgraph.Result, error)
}

// New builds a server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		pool:     NewPool(cfg.MaxConcurrent),
		metrics:  NewMetrics(),
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		generate: (*nullgraph.Engine).GenerateContext,
	}
}

// Metrics exposes the server's counters (for tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close releases every pooled engine.
func (s *Server) Close() error { return s.pool.Close() }

// Handler returns the service's HTTP mux:
//
//	POST /v1/generate  — body: "degree count" lines; response: edge list
//	GET  /metrics      — Prometheus text
//	GET  /healthz      — liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WritePrometheus(w, s.pool); err != nil {
		// The status line is already on the wire; all we can do is count
		// the aborted scrape so truncated metrics pages are visible on the
		// next successful one.
		s.metrics.ObserveResponse(http.StatusInternalServerError)
	}
}

// errQueueFull rejects arrivals beyond the bounded admission queue.
var errQueueFull = errors.New("serve: admission queue full")

// admit blocks until a generation slot is free, the queue overflows,
// or ctx ends. The returned func frees the slot.
func (s *Server) admit(ctx context.Context) (func(), error) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	default:
	}
	if s.waiters.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiters.Add(-1)
		return nil, errQueueFull
	}
	defer s.waiters.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// genRequest is one parsed /v1/generate request.
type genRequest struct {
	dist     *nullgraph.DegreeDistribution
	opt      nullgraph.Options
	deadline time.Duration
	binary   bool
}

// parseGenerate validates the request and builds engine options. All
// client errors are reported as (nil, message) for a 400.
func (s *Server) parseGenerate(r *http.Request) (*genRequest, string) {
	q := r.URL.Query()
	req := &genRequest{binary: true}
	opt := nullgraph.Options{Workers: s.cfg.Workers, Seed: s.cfg.Seed, SwapIterations: 10}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Sprintf("bad seed %q", v)
		}
		opt.Seed = seed
	}
	if v := q.Get("swaps"); v != "" {
		swaps, err := strconv.Atoi(v)
		if err != nil || swaps < 0 || swaps > 1<<20 {
			return nil, fmt.Sprintf("bad swaps %q", v)
		}
		opt.SwapIterations = swaps
	}
	switch v := q.Get("stop"); v {
	case "":
	case "mixed":
		opt.MixUntilSwapped = true
	case "assortativity":
		opt.StopPolicy = &nullgraph.StopPolicy{Statistic: nullgraph.StopOnAssortativity}
	case "triangles":
		opt.StopPolicy = &nullgraph.StopPolicy{Statistic: nullgraph.StopOnTriangles}
	case "success-rate":
		opt.StopPolicy = &nullgraph.StopPolicy{Statistic: nullgraph.StopOnSuccessRate}
	default:
		return nil, fmt.Sprintf("bad stop %q (want mixed, assortativity, triangles or success-rate)", v)
	}
	if v := q.Get("refine"); v != "" {
		refine, err := strconv.Atoi(v)
		if err != nil || refine < 0 || refine > 1024 {
			return nil, fmt.Sprintf("bad refine %q", v)
		}
		opt.RefineProbabilities = refine
	}
	switch v := q.Get("format"); v {
	case "", "binary":
	case "text":
		req.binary = false
	default:
		return nil, fmt.Sprintf("bad format %q (want binary or text)", v)
	}
	req.deadline = s.cfg.DefaultDeadline
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			return nil, fmt.Sprintf("bad deadline_ms %q", v)
		}
		req.deadline = time.Duration(ms) * time.Millisecond
	}
	if req.deadline > s.cfg.MaxDeadline {
		req.deadline = s.cfg.MaxDeadline
	}
	dist, err := nullgraph.ReadDistribution(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, fmt.Sprintf("bad distribution: %v", err)
	}
	if err := nullgraph.Validate(dist); err != nil {
		return nil, err.Error()
	}
	req.dist = dist
	req.opt = opt
	return req, ""
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, msg := s.parseGenerate(r)
	if req == nil {
		s.fail(w, http.StatusBadRequest, msg)
		return
	}
	// The deadline spans queueing and generation both: a request that
	// spent its budget waiting for a slot is as late as one that spent
	// it swapping.
	ctx, cancel := context.WithTimeout(r.Context(), req.deadline)
	defer cancel()

	release, err := s.admit(ctx)
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			s.fail(w, http.StatusTooManyRequests, "admission queue full")
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, http.StatusGatewayTimeout, "deadline expired while queued")
		default:
			// Client went away while queued; nothing to send.
			s.metrics.ObserveResponse(499)
		}
		return
	}
	defer release()
	done := s.metrics.RequestStarted()
	defer done()

	lease, err := s.pool.Acquire(Fingerprint(req.dist, req.opt), req.opt)
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	// A panic while the lease is out leaves the engine in an unknown
	// state: retire it (never park it for another request) and fail
	// this request alone. Once the status line is on the wire the only
	// honest answer is to abort the connection, so the client sees a
	// cut response instead of a short one.
	wroteHeader := false
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		lease.Release(false)
		s.metrics.generatePanics.Add(1)
		// net/http would have logged the panic had it reached it; keep
		// that record, stack included.
		log.Printf("nullgraphd: panic serving %s: %v\n%s", r.RemoteAddr, p, debug.Stack())
		if wroteHeader {
			// The client already has a 200 status line and will see a
			// cut stream: count it like any other aborted response.
			s.metrics.ObserveResponse(499)
			panic(http.ErrAbortHandler)
		}
		s.fail(w, http.StatusInternalServerError, "internal error")
	}()
	res, err := s.generate(lease.Engine, ctx, req.dist)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// Cooperative cancellation leaves the engine reusable.
			lease.Release(true)
			s.fail(w, http.StatusGatewayTimeout, "generation deadline expired")
		case errors.Is(err, context.Canceled):
			lease.Release(true)
			s.metrics.ObserveResponse(499)
		default:
			// Unknown engine state: retire the session.
			lease.Release(false)
			s.fail(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	// Result aliases engine-owned buffers: serialize the response and
	// fold the metrics in before the lease (and with it the buffers)
	// goes back to the pool.
	s.metrics.ObserveResult(res)
	h := w.Header()
	h.Set("X-Nullgraph-Seed", strconv.FormatUint(req.opt.Seed, 10))
	h.Set("X-Nullgraph-Sample", strconv.FormatUint(lease.Sample, 10))
	if res.Stop != nil {
		h.Set("X-Nullgraph-Stop-Reason", res.Stop.Reason)
		h.Set("X-Nullgraph-Swap-Iterations", strconv.Itoa(res.Stop.Iterations))
	}
	h.Set("X-Nullgraph-Vertices", strconv.Itoa(res.Graph.NumVertices))
	h.Set("X-Nullgraph-Edges", strconv.Itoa(len(res.Graph.Edges)))
	var werr error
	if req.binary {
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.FormatInt(graph.BinaryEdgeListSize(res.Graph), 10))
		wroteHeader = true
		w.WriteHeader(http.StatusOK)
		werr = nullgraph.WriteGraphBinary(w, res.Graph)
	} else {
		h.Set("Content-Type", "text/plain; charset=utf-8")
		wroteHeader = true
		w.WriteHeader(http.StatusOK)
		werr = nullgraph.WriteGraph(w, res.Graph)
	}
	lease.Release(true)
	if werr != nil {
		// Headers are gone; the client sees the byte-count mismatch
		// (Content-Length) or a cut stream. Count it server-side too.
		s.metrics.ObserveResponse(499)
		return
	}
	s.metrics.ObserveResponse(http.StatusOK)
}

// fail writes a plain-text error and records the code.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.metrics.ObserveResponse(code)
	http.Error(w, msg, code)
}
