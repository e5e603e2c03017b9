package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	rtmetrics "runtime/metrics"
	"time"

	"nullgraph"
	"nullgraph/internal/connected"
	"nullgraph/internal/directed"
	"nullgraph/internal/edgeskip"
	"nullgraph/internal/par"
	"nullgraph/internal/probgen"
	"nullgraph/internal/rng"
	"nullgraph/internal/serve"
	"nullgraph/internal/swap"
)

// The replays below call each layer the way the public API calls it,
// with the same seeds and options (core derives the swap seed as
// sample seed + 0x5eed, the directed pipeline as Mix64(seed) +
// 0xd15eed). The Workers=1 fidelity check in runTraced fails the run
// the moment a replay stops matching the program.

// heapObjects reads the cumulative heap allocation count without
// stopping the world.
func heapObjects() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// swapLayer is one reused swap engine on its own worker pool, as a
// core session holds it.
type swapLayer struct {
	pool *par.Pool
	eng  *swap.Engine
}

func (sl *swapLayer) close() {
	if sl.pool != nil {
		sl.pool.Close()
	}
}

// run binds el (NewEngine on first use, SetSeed and Reset after, as
// core does) and steps it iterations times under spans, recording the
// swap layer's metrics.
func (sl *swapLayer) run(tr *tracer, o observations, w width, el *nullgraph.Graph, opt swap.Options, iterations int) {
	tr.begin("swap.bind")
	if sl.eng == nil {
		opt.Pool = sl.pool
		sl.eng = swap.NewEngine(el, opt)
	} else {
		sl.eng.SetSeed(opt.Seed)
		sl.eng.Reset(el)
	}
	o.add("swap.bind_ms"+w.suffix, ms(tr.end()))
	var attempts, successes int64
	var total time.Duration
	allocs := heapObjects()
	for i := 0; i < iterations; i++ {
		tr.begin("swap.step")
		st := sl.eng.Step()
		d := tr.end()
		o.add("swap.step_ms"+w.suffix, ms(d))
		total += d
		attempts += st.Attempts
		successes += st.Successes
	}
	o.add("swap.steps_ms"+w.suffix, ms(total))
	o.add("swap.allocs_per_step", float64(heapObjects()-allocs)/float64(iterations))
	o.add("swap.accept_ratio", float64(successes)/float64(attempts))
	o.add("swap.swapped_frac", sl.eng.EverSwappedFraction())
}

// recordPhases folds a public-API result's phase times into o, with
// the rest of the operation's wall time as core.other_ms.
func recordPhases(o observations, res *nullgraph.Result, wall time.Duration) {
	o.add("op_ms", ms(wall))
	o.add("core.phase.probabilities_ms", ms(res.Phases.Probabilities))
	o.add("core.phase.edge_generation_ms", ms(res.Phases.EdgeGeneration))
	o.add("core.phase.swapping_ms", ms(res.Phases.Swapping))
	o.add("core.other_ms", ms(wall-res.Phases.Total()))
}

// genPipeline is gen-skewed: Engine.Generate on one reused engine per
// width, replayed as probgen.GenerateStop → edgeskip.Generator.Generate
// → swap.NewEngine/Reset → Step ×10.
type genPipeline struct {
	seed   uint64
	dist   *nullgraph.DegreeDistribution
	public map[width]*nullgraph.Engine
	layers map[width]*genLayers
	last   []nullgraph.Edge
	o      observations
	chk    checker
}

type genLayers struct {
	swapLayer
	gen  *edgeskip.Generator
	prob *probgen.Matrix
}

func newGenPipeline(cfg config) (*genPipeline, error) {
	dist, err := skewedDistribution(cfg.seed, 1, skewedN, skewedDmax, skewedGamma)
	if err != nil {
		return nil, err
	}
	return &genPipeline{seed: cfg.seed, dist: dist, public: map[width]*nullgraph.Engine{}, layers: map[width]*genLayers{}, o: observations{}}, nil
}

func (g *genPipeline) untraced(w width, s uint64) (op, error) {
	eng := g.public[w]
	if eng == nil {
		eng = nullgraph.NewEngine(nullgraph.Options{Workers: w.p, Seed: g.seed, SwapIterations: skewedSwaps})
		g.public[w] = eng
	}
	eng.SetSample(s)
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	watch := startWatch()
	res, err := eng.GenerateContext(ctx, g.dist)
	l := watch.stop()
	if err == nil {
		err = g.chk.generated(res.Graph, g.dist)
	}
	if err != nil {
		return op{lap: l}, err
	}
	if w.suffix == "" {
		recordPhases(g.o, res, l.wall)
	}
	return op{edgeHash(res.Graph.Edges), l, lastEverSwapped(res.SwapIterations)}, nil
}

func (g *genPipeline) traced(tr *tracer, w width, s uint64) (uint64, error) {
	l := g.layers[w]
	if l == nil {
		pool := par.NewPool(w.p)
		gen := edgeskip.NewGenerator(edgeskip.Options{Workers: w.p})
		gen.SetPool(pool)
		l = &genLayers{swapLayer: swapLayer{pool: pool}, gen: gen}
		g.layers[w] = l
	}
	seed := nullgraph.SampleSeed(g.seed, s)
	tr.begin("replay.gen-skewed")
	if l.prob == nil {
		// Computed once per engine and cached, as the session does.
		tr.begin("probgen.generate")
		l.prob, _ = probgen.GenerateStop(g.dist, w.p, nil)
		g.o.add("probgen.ms", ms(tr.end()))
		g.o.add("probgen.classes", float64(g.dist.NumClasses()))
	}
	tr.begin("edgeskip.generate")
	el, err := l.gen.Generate(g.dist, l.prob, seed, nil)
	d := tr.end()
	if err != nil {
		tr.end()
		return 0, err
	}
	if w.suffix == "" {
		g.o.add("edgeskip.ms", ms(d))
		g.o.add("edgeskip.edges_per_s", float64(len(el.Edges))/d.Seconds())
	}
	l.run(tr, g.o, w, el, swap.Options{Iterations: skewedSwaps, Workers: w.p, Seed: seed + 0x5eed, TrackSwapped: true}, skewedSwaps)
	tr.end() // verification below stays outside the root span
	g.o.add("quality.edges_err_pct", edgesErr(el, g.dist))
	g.last = el.Edges
	return edgeHash(el.Edges), g.chk.generated(el, g.dist)
}

func (g *genPipeline) extras(*tracer) error { return nil }

func (g *genPipeline) edges() []nullgraph.Edge { return g.last }
func (g *genPipeline) obs() observations       { return g.o }

func (g *genPipeline) close() {
	for _, e := range g.public {
		e.Close()
	}
	for _, l := range g.layers {
		l.close()
	}
}

// directedPipeline is directed-shuffle: ShuffleDirected of a fresh copy
// of a fixed digraph, replayed as directed.NewSwapEngine → Step ×10.
type directedPipeline struct {
	seed          uint64
	base          *nullgraph.Digraph
	wantOut, want []int64
	work          nullgraph.Digraph
	o             observations
	chk           checker
}

func newDirectedPipeline(cfg config) *directedPipeline {
	d := &directedPipeline{seed: cfg.seed, base: skewedDigraph(cfg.seed, skewedN, digraphArcs, skewedDmax, skewedGamma), o: observations{}}
	out, in := d.chk.arcDegrees(d.base.Arcs, d.base.NumVertices)
	d.wantOut, d.want = append([]int64(nil), out...), append([]int64(nil), in...)
	return d
}

func (d *directedPipeline) fresh() *nullgraph.Digraph {
	d.work.Arcs = append(d.work.Arcs[:0], d.base.Arcs...)
	d.work.NumVertices = d.base.NumVertices
	return &d.work
}

func (d *directedPipeline) untraced(w width, s uint64) (op, error) {
	g := d.fresh()
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	opt := nullgraph.Options{Workers: w.p, Seed: nullgraph.SampleSeed(d.seed, s), SwapIterations: skewedSwaps}
	watch := startWatch()
	_, err := nullgraph.ShuffleDirectedContext(ctx, g, opt)
	l := watch.stop()
	if err == nil {
		err = d.chk.directedShuffled(g, d.wantOut, d.want)
	}
	if err != nil {
		return op{lap: l}, err
	}
	// The fixed-budget directed chain keeps no per-arc swap flags, so
	// mixing is read off the output: the share of input arcs it no
	// longer holds.
	return op{arcHash(g.Arcs), l, d.chk.replacedFraction(d.base.Arcs)}, nil
}

func (d *directedPipeline) traced(tr *tracer, w width, s uint64) (uint64, error) {
	g := d.fresh()
	seed := nullgraph.SampleSeed(d.seed, s)
	tr.begin("replay.directed-shuffle")
	tr.begin("directed.engine")
	eng := directed.NewSwapEngine(g, directed.SwapOptions{Iterations: skewedSwaps, Workers: w.p, Seed: rng.Mix64(seed) + 0xd15eed})
	d.o.add("directed.engine_ms", ms(tr.end()))
	var attempts, successes int64
	for i := 0; i < skewedSwaps; i++ {
		tr.begin("directed.step")
		st := eng.Step()
		d.o.add("directed.step_ms"+w.suffix, ms(tr.end()))
		attempts += st.Attempts
		successes += st.Successes
	}
	tr.end()
	d.o.add("directed.accept_ratio", float64(successes)/float64(attempts))
	if err := d.chk.directedShuffled(g, d.wantOut, d.want); err != nil {
		return 0, err
	}
	// Tracking per-arc flags would add a flag permutation per step that
	// the public chain does not run; read mixing off the output instead.
	d.o.add("directed.replaced_frac", d.chk.replacedFraction(d.base.Arcs))
	return arcHash(g.Arcs), nil
}

func (d *directedPipeline) extras(*tracer) error { return nil }

// edges views the arcs as edges for the kernel timings.
func (d *directedPipeline) edges() []nullgraph.Edge {
	out := make([]nullgraph.Edge, len(d.base.Arcs))
	for i, a := range d.base.Arcs {
		out[i] = nullgraph.Edge{U: a.From, V: a.To}
	}
	return out
}

func (d *directedPipeline) obs() observations { return d.o }
func (d *directedPipeline) close()            {}

// connectedPipeline is connected-sparse: Engine.Shuffle with Connected
// of a fresh copy of a fixed graph, replayed as connected.Connect →
// swap.NewEngine/Reset with Connected → Step ×4.
type connectedPipeline struct {
	seed   uint64
	base   *nullgraph.Graph
	want   []int64
	work   nullgraph.Graph
	public map[width]*nullgraph.Engine
	layers map[width]*swapLayer
	o      observations
	chk    checker
}

func newConnectedPipeline(cfg config) (*connectedPipeline, error) {
	c := &connectedPipeline{seed: cfg.seed, base: sparseConnectedGraph(cfg.seed, sparseN, sparseM),
		public: map[width]*nullgraph.Engine{}, layers: map[width]*swapLayer{}, o: observations{}}
	if err := c.chk.connected(c.base.Edges, c.base.NumVertices); err != nil {
		return nil, err
	}
	c.want = append([]int64(nil), c.chk.degrees(c.base.Edges, c.base.NumVertices)...)
	return c, nil
}

func (c *connectedPipeline) fresh() *nullgraph.Graph {
	c.work.Edges = append(c.work.Edges[:0], c.base.Edges...)
	c.work.NumVertices = c.base.NumVertices
	return &c.work
}

func (c *connectedPipeline) untraced(w width, s uint64) (op, error) {
	eng := c.public[w]
	if eng == nil {
		eng = nullgraph.NewEngine(nullgraph.Options{Connected: true, Workers: w.p, Seed: c.seed, SwapIterations: sparseSwaps})
		c.public[w] = eng
	}
	eng.SetSample(s)
	g := c.fresh()
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	watch := startWatch()
	res, err := eng.ShuffleContext(ctx, g)
	l := watch.stop()
	if err == nil {
		err = c.chk.shuffled(g, c.want, true)
	}
	if err != nil {
		return op{lap: l}, err
	}
	if w.suffix == "" {
		recordPhases(c.o, res, l.wall)
	}
	return op{edgeHash(g.Edges), l, lastEverSwapped(res.SwapIterations)}, nil
}

func (c *connectedPipeline) traced(tr *tracer, w width, s uint64) (uint64, error) {
	l := c.layers[w]
	if l == nil {
		l = &swapLayer{pool: par.NewPool(w.p)}
		c.layers[w] = l
	}
	g := c.fresh()
	seed := nullgraph.SampleSeed(c.seed, s)
	tr.begin("replay.connected-sparse")
	tr.begin("connected.connect")
	_, err := connected.Connect(g)
	tr.end()
	if err != nil {
		tr.end()
		return 0, err
	}
	l.run(tr, c.o, w, g, swap.Options{Connected: true, Iterations: sparseSwaps, Workers: w.p, Seed: seed + 0x5eed, TrackSwapped: true}, sparseSwaps)
	tr.end()
	if st := l.eng.ConnectivityStats(); st != nil && st.Proposals > 0 {
		c.o.add("connected.fast_path_ratio", float64(st.FastPathHits)/float64(st.Proposals))
		c.o.add("connected.rejected_ratio", float64(st.RejectedDisconnecting)/float64(st.Proposals))
		c.o.add("connected.full_checks", float64(st.FullChecks))
		if st.BoundedChecks > 0 {
			c.o.add("connected.bounded_conclusive_ratio", float64(st.BoundedConclusive)/float64(st.BoundedChecks))
		}
	}
	return edgeHash(g.Edges), c.chk.shuffled(g, c.want, true)
}

// extras times connected.Checker.SwapKeepsConnected alone, on the
// workload's graph, over proposals drawn as the chain draws them.
func (c *connectedPipeline) extras(tr *tracer) error {
	g := c.fresh()
	chk := connected.NewChecker()
	if err := chk.Bind(g); err != nil {
		return err
	}
	present := make(map[uint64]struct{}, len(g.Edges))
	for _, e := range g.Edges {
		present[e.Key()] = struct{}{}
	}
	src := rng.New(c.seed ^ 0xc0ec)
	m := uint64(len(g.Edges))
	var busy time.Duration
	calls := 0
	tr.begin("kernels.connected-sparse")
	defer tr.end()
	for k := 0; k < len(g.Edges); k++ {
		i, j := src.Uint64n(m), src.Uint64n(m)
		if i == j {
			continue
		}
		e, f := g.Edges[i], g.Edges[j]
		gg, hh := nullgraph.Edge{U: e.U, V: f.V}, nullgraph.Edge{U: f.U, V: e.V}
		if src.Bool() {
			gg, hh = nullgraph.Edge{U: e.U, V: f.U}, nullgraph.Edge{U: e.V, V: f.V}
		}
		if gg.IsLoop() || hh.IsLoop() || gg.Key() == hh.Key() {
			continue
		}
		_, dg := present[gg.Key()]
		_, dh := present[hh.Key()]
		if dg || dh {
			continue
		}
		tr.begin("connected.check")
		ok := chk.SwapKeepsConnected(e, f, gg, hh)
		busy += tr.end()
		calls++
		if ok {
			delete(present, e.Key())
			delete(present, f.Key())
			present[gg.Key()] = struct{}{}
			present[hh.Key()] = struct{}{}
			g.Edges[i], g.Edges[j] = gg, hh
		}
	}
	if calls == 0 {
		return fmt.Errorf("no checkable proposal on the connected-sparse graph")
	}
	c.o.add("connected.check_ns", float64(busy.Nanoseconds())/float64(calls))
	return nil
}

func (c *connectedPipeline) edges() []nullgraph.Edge { return c.base.Edges }
func (c *connectedPipeline) obs() observations       { return c.o }

func (c *connectedPipeline) close() {
	for _, e := range c.public {
		e.Close()
	}
	for _, l := range c.layers {
		l.close()
	}
}

// servePipeline is serve-churn's in-process half (the untraced
// workload drives HTTP; see serve.go), replayed as serve.Fingerprint →
// Pool.Acquire → Engine.GenerateContext → WriteGraphBinary, each
// request a new distribution on a pool that, like the server's, keeps
// every key.
type servePipeline struct {
	seed     uint64
	pool     *serve.Pool
	public   *serve.Pool
	reqKey   uint64
	acquired int
	req      serveRequest
	extra    int
	last     []nullgraph.Edge
	o        observations
	chk      checker
	buf      bytes.Buffer
}

func newServePipeline(cfg config) (*servePipeline, error) {
	return &servePipeline{seed: cfg.seed, pool: serve.NewPool(0), public: serve.NewPool(0), o: observations{}}, nil
}

// opt is what the server builds for a request that sets nothing but
// the body: its configured seed, one worker, ten swap iterations.
func (sr *servePipeline) opt() nullgraph.Options {
	return nullgraph.Options{Workers: 1, Seed: sr.seed, SwapIterations: skewedSwaps}
}

// request returns operation (w, s)'s request. untraced and traced
// send the same request for the same (w, s), each to its own pool, so
// both see a never-before-seen distribution.
func (sr *servePipeline) request(w width, s uint64) (serveRequest, error) {
	key := 2 * s
	if w.suffix != "" {
		key++
	}
	if sr.req.dist != nil && sr.reqKey == key {
		return sr.req, nil
	}
	req, err := newServeRequest(sr.seed, int(key))
	sr.req, sr.reqKey = req, key
	return req, err
}

// extraRequest returns a request no operation uses.
func (sr *servePipeline) extraRequest() (serveRequest, error) {
	sr.extra++
	return newServeRequest(sr.seed^0xe7, sr.extra)
}

// untraced runs the handler's calls without spans. Every request is a
// new distribution, so the width (always the server's one worker) only
// names the run.
func (sr *servePipeline) untraced(w width, s uint64) (op, error) {
	req, err := sr.request(w, s)
	if err != nil {
		return op{}, err
	}
	opt := sr.opt()
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	watch := startWatch()
	lease, err := sr.public.Acquire(serve.Fingerprint(req.dist, opt), opt)
	if err != nil {
		return op{}, err
	}
	res, err := lease.Engine.GenerateContext(ctx, req.dist)
	if err == nil {
		sr.buf.Reset()
		err = nullgraph.WriteGraphBinary(&sr.buf, res.Graph)
	}
	l := watch.stop()
	if err == nil {
		err = sr.chk.generated(res.Graph, req.dist)
	}
	if err != nil {
		lease.Release(false)
		return op{lap: l}, err
	}
	if w.suffix == "" {
		recordPhases(sr.o, res, l.wall)
	}
	o := op{edgeHash(res.Graph.Edges), l, lastEverSwapped(res.SwapIterations)}
	lease.Release(true)
	return o, nil
}

func (sr *servePipeline) traced(tr *tracer, w width, s uint64) (uint64, error) {
	req, err := sr.request(w, s)
	if err != nil {
		return 0, err
	}
	opt := sr.opt()
	tr.begin("replay.serve-churn")
	tr.begin("serve.fingerprint")
	fp := serve.Fingerprint(req.dist, opt)
	tr.end()
	tr.begin("serve.acquire")
	lease, err := sr.pool.Acquire(fp, opt)
	sr.acquired++
	sr.o.add("serve.acquire_ms", ms(tr.end()))
	if err != nil {
		tr.end()
		return 0, err
	}
	tr.begin("serve.generate")
	res, err := lease.Engine.GenerateContext(context.Background(), req.dist)
	sr.o.add("serve.generate_ms", ms(tr.end()))
	if err != nil {
		tr.end()
		lease.Release(false)
		return 0, err
	}
	tr.begin("serve.encode")
	sr.buf.Reset()
	err = nullgraph.WriteGraphBinary(&sr.buf, res.Graph)
	sr.o.add("serve.encode_ms", ms(tr.end()))
	tr.end()
	h := edgeHash(res.Graph.Edges)
	if err == nil {
		err = sr.chk.generated(res.Graph, req.dist)
	}
	// The result aliases the engine's buffers; keep a copy for the
	// kernel timings before the lease goes back.
	sr.last = append(sr.last[:0], res.Graph.Edges...)
	lease.Release(err == nil)
	// Pool growth per request: 1 while every fingerprint is new and
	// the pool keeps every key.
	keys, idle := sr.pool.Stats()
	sr.o.add("serve.pool_keys_per_req", float64(keys)/float64(sr.acquired))
	sr.o.add("serve.pool_idle_per_req", float64(idle)/float64(sr.acquired))
	return h, err
}

// extras replays one cold request layer by layer (what the handler's
// GenerateContext hides) and checks it against the served path, then
// times one real loopback round trip against the handler's own span.
func (sr *servePipeline) extras(tr *tracer) error {
	req, err := sr.extraRequest()
	if err != nil {
		return err
	}
	opt := sr.opt()
	lease, err := sr.public.Acquire(serve.Fingerprint(req.dist, opt), opt)
	if err != nil {
		return err
	}
	res, err := lease.Engine.GenerateContext(context.Background(), req.dist)
	if err != nil {
		lease.Release(false)
		return err
	}
	served := edgeHash(res.Graph.Edges)
	sample := lease.Sample
	lease.Release(true)

	// The cold pipeline at the server's width (one worker), fresh state
	// throughout; its swap metrics are serve-churn's full-width ones.
	server := width{1, ""}
	seed := nullgraph.SampleSeed(sr.seed, sample)
	sl := swapLayer{pool: par.NewPool(1)}
	defer sl.close()
	tr.begin("layers.serve-churn")
	tr.begin("probgen.generate")
	prob, _ := probgen.GenerateStop(req.dist, 1, nil)
	sr.o.add("probgen.ms", ms(tr.end()))
	sr.o.add("probgen.classes", float64(req.dist.NumClasses()))
	gen := edgeskip.NewGenerator(edgeskip.Options{Workers: 1})
	gen.SetPool(sl.pool)
	tr.begin("edgeskip.generate")
	el, err := gen.Generate(req.dist, prob, seed, nil)
	d := tr.end()
	if err != nil {
		tr.end()
		return err
	}
	sr.o.add("edgeskip.ms", ms(d))
	sr.o.add("edgeskip.edges_per_s", float64(len(el.Edges))/d.Seconds())
	sl.run(tr, sr.o, server, el, swap.Options{Iterations: skewedSwaps, Workers: 1, Seed: seed + 0x5eed, TrackSwapped: true}, skewedSwaps)
	sr.o.add("quality.edges_err_pct", edgesErr(el, req.dist))
	tr.end()
	if edgeHash(el.Edges) != served {
		return fmt.Errorf("serve-churn: cold layer replay diverges from the served sample")
	}

	// One loopback round trip: the http root's self time is the client
	// latency minus the handler span. The handler runs on the server's
	// goroutine, so it hands its interval over a channel and the span is
	// recorded here once the handler has returned.
	type interval struct{ start, end time.Time }
	handled := make(chan interval, 1)
	lb, err := startLoopback(sr.seed, 1, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			handled <- interval{start, time.Now()}
		})
	})
	if err != nil {
		return err
	}
	hreq, err := sr.extraRequest()
	if err != nil {
		return errors.Join(err, lb.stop())
	}
	tr.begin("http.serve-churn")
	out := lb.post(hreq.body)
	var in interval
	if out.err == nil {
		in = <-handled
		tr.child("serve.handler", in.start, in.end)
	}
	total := tr.end()
	if err := lb.stop(); err != nil {
		return err
	}
	if _, err := checkServed(out, hreq, &sr.chk); err != nil {
		return err
	}
	sr.o.add("serve.http_ms", ms(total-in.end.Sub(in.start)))
	return nil
}

func (sr *servePipeline) edges() []nullgraph.Edge { return sr.last }
func (sr *servePipeline) obs() observations       { return sr.o }

func (sr *servePipeline) close() {
	sr.pool.Close()
	sr.public.Close()
}
