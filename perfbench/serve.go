package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nullgraph"
	"nullgraph/internal/serve"
)

// serveBatch is how many requests one server answers before the next
// batch starts on a fresh server. Every request carries a new
// distribution, so the pool grows by one key per request; a fixed batch
// makes the pool — and with it mem_peak_mb — the same size on every
// run, whatever the throughput.
const serveBatch = 24

// serveReplays is how many served responses per run are regenerated
// offline after the window, to check them bit for bit and read their
// swap statistics.
const serveReplays = 4

// loopback is one nullgraphd handler on a loopback listener.
type loopback struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	done   chan error
	client *http.Client
}

// startLoopback serves a fresh serve.Server on 127.0.0.1, wrapping its
// handler in wrap when non-nil.
func startLoopback(seed uint64, conns int, wrap func(http.Handler) http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(serve.Config{Seed: seed})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	lb := &loopback{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { lb.done <- lb.hs.Serve(ln) }()
	return lb, nil
}

// stop closes the listener and every connection, waits for Serve to
// return, and releases the pooled engines.
func (lb *loopback) stop() error {
	lb.client.CloseIdleConnections()
	err := lb.hs.Close()
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := lb.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// served is one response as the client received it.
type served struct {
	status  int
	header  http.Header
	body    []byte
	latency time.Duration
	err     error
}

// post sends one generate request and reads the whole response.
func (lb *loopback) post(body []byte) served {
	start := time.Now()
	resp, err := lb.client.Post(lb.url+"/v1/generate?deadline_ms="+strconv.Itoa(int(opDeadline/time.Millisecond)), "text/plain", bytes.NewReader(body))
	if err != nil {
		return served{err: err, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return served{status: resp.StatusCode, header: resp.Header, body: b, latency: time.Since(start), err: err}
}

// poolKeys scrapes the server's pool-key gauge from /metrics.
func (lb *loopback) poolKeys() (int, error) {
	resp, err := lb.client.Get(lb.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "nullgraphd_pool_keys "); ok {
			return strconv.Atoi(v)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no nullgraphd_pool_keys in /metrics")
}

// checkServed verifies one response: a 2xx whose binary payload
// decodes, whose headers match the decoded graph, and whose graph is a
// valid sample of the request's distribution.
func checkServed(s served, req serveRequest, chk *checker) (*nullgraph.Graph, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.status/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", s.status, strings.TrimSpace(string(s.body)))
	}
	g, err := nullgraph.ReadGraphBinary(bytes.NewReader(s.body))
	if err != nil {
		return nil, fmt.Errorf("decoding payload: %w", err)
	}
	for _, h := range []struct {
		name string
		want int
	}{{"X-Nullgraph-Vertices", g.NumVertices}, {"X-Nullgraph-Edges", len(g.Edges)}} {
		if got := s.header.Get(h.name); got != strconv.Itoa(h.want) {
			return nil, fmt.Errorf("header %s = %q, payload has %d", h.name, got, h.want)
		}
	}
	if err := chk.generated(g, req.dist); err != nil {
		return nil, err
	}
	return g, nil
}

// serveChurn is serve-churn's run state.
type serveChurn struct {
	cfg    config
	next   int // index of the next request to build
	chk    checker
	t      tally
	hashes []servedHash // responses kept for the offline replay
}

// servedHash identifies one verified response for the offline replay.
type servedHash struct {
	req    serveRequest
	sample uint64
	hash   uint64
}

// requests builds the next n requests, outside any timed window.
func (sc *serveChurn) requests(n int) ([]serveRequest, error) {
	reqs := make([]serveRequest, n)
	for i := range reqs {
		r, err := newServeRequest(sc.cfg.seed, sc.next)
		if err != nil {
			return nil, err
		}
		sc.next++
		reqs[i] = r
	}
	return reqs, nil
}

// batch serves reqs on a fresh server with a closed loop of conns
// clients, verifies every response afterwards, and adds the batch's
// time and each verified response to s.
func (sc *serveChurn) batch(reqs []serveRequest, conns int, s *series) error {
	lb, err := startLoopback(sc.cfg.seed, conns, nil)
	if err != nil {
		return err
	}
	out := make([]served, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	watch := startWatch()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = lb.post(reqs[i].body)
			}
		}()
	}
	wg.Wait()
	l := watch.stop()
	// Steal is only resolved per batch (10 ms ticks); each request's
	// latency takes the batch's share.
	scale := l.adj.Seconds() / l.wall.Seconds()
	keys, kerr := lb.poolKeys()
	if err := lb.stop(); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	verified := 0
	for i, o := range out {
		g, err := checkServed(o, reqs[i], &sc.chk)
		if sc.t.record(err) {
			verified++
			s.lat = append(s.lat, scale*ms(o.latency))
			if len(sc.hashes) < serveReplays {
				sample, _ := strconv.ParseUint(o.header.Get("X-Nullgraph-Sample"), 10, 64)
				sc.hashes = append(sc.hashes, servedHash{req: reqs[i], sample: sample, hash: edgeHash(g.Edges)})
			}
		}
	}
	s.addWork(l, verified)
	// Every request carried a new distribution, so the pool must hold
	// exactly one key per request: a reused fingerprint fails the batch.
	if kerr != nil || keys != len(reqs) {
		sc.t.record(fmt.Errorf("pool holds %d keys after %d distinct requests (%v)", keys, len(reqs), kerr))
	}
	return nil
}

// replay regenerates the kept responses offline at Workers=1 under the
// sample seed the server reported, checks each is bit-identical to what
// was served, and returns their ever-swapped fractions.
func (sc *serveChurn) replay() []float64 {
	var swapped []float64
	for _, h := range sc.hashes {
		res, err := nullgraph.Generate(h.req.dist, nullgraph.Options{Workers: 1, Seed: nullgraph.SampleSeed(sc.cfg.seed, h.sample), SwapIterations: skewedSwaps})
		if err == nil && edgeHash(res.Graph.Edges) != h.hash {
			err = fmt.Errorf("served sample %d differs from its offline reproduction", h.sample)
		}
		if sc.t.record(err) {
			swapped = append(swapped, lastEverSwapped(res.SwapIterations))
		}
	}
	return swapped
}

// setup starts a server, sends one warm-up request, and stops it.
func (sc *serveChurn) setup() error {
	reqs, err := sc.requests(1)
	if err != nil {
		return err
	}
	var warm series
	if err := sc.batch(reqs, 1, &warm); err != nil {
		return err
	}
	if warm.ok != 1 {
		return fmt.Errorf("warm-up request failed: %v", sc.t.firstErr)
	}
	return nil
}

// runServeChurn drives an in-process nullgraphd handler over loopback:
// a closed loop of nproc clients (and, alternately, one client), every
// request a never-before-seen distribution, so each builds a cold
// engine.
func runServeChurn(cfg config) (*result, error) {
	sc := &serveChurn{cfg: cfg}
	_, setupS, err := repeatSetup(func() (struct{}, error) { return struct{}{}, sc.setup() }, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	var main, w1 series
	for deadline := time.Now().Add(cfg.window); time.Now().Before(deadline); {
		for _, b := range []struct {
			conns int
			s     *series
		}{{cfg.nproc, &main}, {1, &w1}} {
			reqs, err := sc.requests(serveBatch)
			if err != nil {
				return nil, err
			}
			if err := sc.batch(reqs, b.conns, b.s); err != nil {
				return nil, err
			}
		}
	}
	swapped := sc.replay()
	m, err := endToEnd(&main, &w1, setupS, swapped)
	if err != nil {
		return nil, err
	}
	return newResult(&sc.t, m), nil
}
