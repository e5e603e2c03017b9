package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nullgraph"
)

// distBody renders a distribution as the "degree count" request body.
func distBody(t testing.TB, dist *nullgraph.DegreeDistribution) string {
	t.Helper()
	var buf bytes.Buffer
	if err := nullgraph.WriteDistribution(&buf, dist); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postGenerate(t testing.TB, url, query, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/generate"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerGenerateBinaryRoundTrip drives the full request path: a
// distribution goes in, a binary edge list streams out with an exact
// Content-Length, and the payload reloads into the deterministic
// sample-0 graph of the request's seed.
func TestServerGenerateBinaryRoundTrip(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, Seed: 5})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	dist := testDistribution(t, 0)
	resp := postGenerate(t, srv.URL, "?seed=42", distBody(t, dist))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Nullgraph-Sample"); got != "0" {
		t.Fatalf("sample header = %q, want 0", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %s but body is %d bytes", cl, len(body))
	}
	g, err := nullgraph.ReadGraphBinary(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response payload does not parse: %v", err)
	}
	want, err := nullgraph.Generate(dist, nullgraph.Options{Workers: 1, Seed: 42, SwapIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if hashGraph(g) != hashGraph(want.Graph) {
		t.Fatal("response differs from the deterministic sample-0 reference")
	}

	// Text format parses through the text reader.
	resp2 := postGenerate(t, srv.URL, "?seed=42&format=text", distBody(t, dist))
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("text status %d", resp2.StatusCode)
	}
	if _, err := nullgraph.ReadGraph(resp2.Body); err != nil {
		t.Fatalf("text payload does not parse: %v", err)
	}
}

// TestServerConcurrentSamplesDistinct fires concurrent identical
// requests and asserts the service's core multi-tenant promise: every
// response is a distinct sample index, and each one is bit-identical
// to that index's one-shot reference.
func TestServerConcurrentSamplesDistinct(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, Seed: 11})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	dist := testDistribution(t, 2)
	body := distBody(t, dist)
	const K = 8
	type reply struct {
		sample uint64
		hash   uint64
	}
	replies := make([]reply, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postGenerate(t, srv.URL, "", body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			sample, err := strconv.ParseUint(resp.Header.Get("X-Nullgraph-Sample"), 10, 64)
			if err != nil {
				t.Errorf("request %d: bad sample header: %v", i, err)
				return
			}
			g, err := nullgraph.ReadGraphBinary(resp.Body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			replies[i] = reply{sample: sample, hash: hashGraph(g)}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := make(map[uint64]bool)
	for i, r := range replies {
		if seen[r.sample] {
			t.Fatalf("sample %d served twice", r.sample)
		}
		seen[r.sample] = true
		want, err := nullgraph.Generate(dist, nullgraph.Options{
			Workers: 1, Seed: nullgraph.SampleSeed(11, r.sample), SwapIterations: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if hashGraph(want.Graph) != r.hash {
			t.Fatalf("request %d (sample %d) differs from its reference", i, r.sample)
		}
	}
}

// TestServerQueueOverflow pins the backpressure contract: with every
// slot held and the queue full, the next arrival is rejected 429
// without blocking, and queued requests complete once a slot frees.
func TestServerQueueOverflow(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 1, Seed: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := distBody(t, testDistribution(t, 0))

	// Occupy the only slot directly — deterministic, no timing games.
	s.slots <- struct{}{}

	queued := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/generate?deadline_ms=60000", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			close(queued)
			return
		}
		queued <- resp
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.waiters.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never became a waiter")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postGenerate(t, srv.URL, "", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}

	<-s.slots // free the slot; the queued request proceeds
	qr, ok := <-queued
	if !ok {
		t.Fatal("queued request failed")
	}
	defer qr.Body.Close()
	if qr.StatusCode != http.StatusOK {
		t.Fatalf("queued request status = %d, want 200", qr.StatusCode)
	}
	if _, err := nullgraph.ReadGraphBinary(qr.Body); err != nil {
		t.Fatal(err)
	}
}

// TestServerDeadlineMiss pins deadline semantics: a request whose
// budget cannot cover its generation gets 504, the miss is counted,
// and the engine the canceled run used serves the next request.
func TestServerDeadlineMiss(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, Seed: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	heavy, err := nullgraph.PowerLawDistribution(300_000, 1, 500, 2.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	body := distBody(t, heavy)
	resp := postGenerate(t, srv.URL, "?deadline_ms=1&swaps=64", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if got := s.Metrics().DeadlineMisses(); got != 1 {
		t.Fatalf("deadline misses = %d, want 1", got)
	}

	// Same key, sane deadline: the recycled engine must serve it.
	resp2 := postGenerate(t, srv.URL, "?swaps=2", body)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-miss status = %d, want 200", resp2.StatusCode)
	}
	if _, err := nullgraph.ReadGraphBinary(resp2.Body); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsBadRequests covers the 400 surface: malformed
// bodies, non-graphical distributions, bad parameters, wrong method.
func TestServerRejectsBadRequests(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	good := distBody(t, testDistribution(t, 0))

	cases := []struct {
		name, query, body string
		want              int
	}{
		{"garbage body", "", "not a distribution", http.StatusBadRequest},
		{"non-graphical", "", "100 2\n", http.StatusBadRequest},
		{"bad seed", "?seed=x", good, http.StatusBadRequest},
		{"bad swaps", "?swaps=-1", good, http.StatusBadRequest},
		{"bad stop", "?stop=nope", good, http.StatusBadRequest},
		{"bad format", "?format=xml", good, http.StatusBadRequest},
		{"bad deadline", "?deadline_ms=0", good, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postGenerate(t, srv.URL, tc.query, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	getResp, err := http.Get(srv.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", getResp.StatusCode)
	}
}

// TestServerMetricsAndHealth scrapes /metrics after traffic and
// asserts the RunReport v2 surface is there: per-phase wall time and
// stop decisions, plus request counters and pool gauges.
func TestServerMetricsAndHealth(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, Seed: 9})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	dist := testDistribution(t, 1)
	for i := 0; i < 3; i++ {
		resp := postGenerate(t, srv.URL, "", distBody(t, dist))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	// One adaptive-stop request so a non-"scans" decision shows up.
	resp := postGenerate(t, srv.URL, "?stop=success-rate", distBody(t, dist))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive request: status %d", resp.StatusCode)
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hr.StatusCode)
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`nullgraphd_requests_total{code="200"} 4`,
		`nullgraphd_samples_served_total 4`,
		`nullgraphd_phase_seconds_total{phase="probabilities"}`,
		`nullgraphd_phase_seconds_total{phase="edge_generation"}`,
		`nullgraphd_phase_seconds_total{phase="swapping"}`,
		`nullgraphd_stop_decisions_total{reason="scans"} 3`,
		`nullgraphd_deadline_misses_total 0`,
		`nullgraphd_queue_rejections_total 0`,
		`nullgraphd_pool_keys`,
		`nullgraphd_pool_idle_engines`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The adaptive run stopped with some recognized reason; its count
	// must land somewhere other than zero-everywhere.
	adaptive := 0
	for _, reason := range []string{"converged", "budget", "mixed", "other"} {
		var n int
		if _, err := fmt.Sscanf(after(text, fmt.Sprintf(`nullgraphd_stop_decisions_total{reason=%q} `, reason)), "%d", &n); err == nil {
			adaptive += n
		}
	}
	if adaptive != 1 {
		t.Errorf("adaptive stop decisions = %d, want 1\nmetrics:\n%s", adaptive, text)
	}
}

// after returns the remainder of s after the first occurrence of sep
// ("" if absent) — a tiny scrape helper.
func after(s, sep string) string {
	if i := strings.Index(s, sep); i >= 0 {
		return s[i+len(sep):]
	}
	return ""
}

// TestServerGeneratePanicRecovered drives the lease boundary's panic
// path at one and two engine workers: a generation that panics on the
// handler goroutine answers 500, counts the panic, retires the engine
// (closing its worker goroutines, never parking it), and the next
// request of the same shape is served by a fresh engine.
func TestServerGeneratePanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := New(Config{Workers: workers, MaxConcurrent: 2, Seed: 3})
			defer s.Close()
			var (
				armed    atomic.Bool
				panicked atomic.Pointer[nullgraph.Engine]
			)
			s.generate = func(e *nullgraph.Engine, ctx context.Context, d *nullgraph.DegreeDistribution) (*nullgraph.Result, error) {
				if armed.Swap(false) {
					panicked.Store(e)
					panic("injected generation fault")
				}
				return e.GenerateContext(ctx, d)
			}
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			client := &http.Client{Transport: &http.Transport{}}
			post := func() *http.Response {
				t.Helper()
				resp, err := client.Post(srv.URL+"/v1/generate", "text/plain", strings.NewReader(distBody(t, testDistribution(t, 0))))
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			baseline, baseWorkers := runtime.NumGoroutine(), poolWorkers()

			armed.Store(true)
			resp := post()
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("panicking request: status %d, want 500", resp.StatusCode)
			}
			if got := scrape(t, client, srv.URL); !strings.Contains(got, "nullgraphd_generate_panics_total 1\n") ||
				!strings.Contains(got, "nullgraphd_pool_idle_engines 0\n") {
				t.Fatalf("after the panic, metrics lack the panic count or show a parked engine:\n%s", got)
			}
			if !engineClosed(t, panicked.Load(), testDistribution(t, 0)) {
				t.Fatal("the panicked request's engine was not closed")
			}
			// The retired engine's worker goroutines, and the test's own
			// connections, must all go away.
			client.CloseIdleConnections()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline || poolWorkers() > baseWorkers {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines = %d (pool workers %d) after the panic, baseline %d (%d): the retired engine leaked",
						runtime.NumGoroutine(), poolWorkers(), baseline, baseWorkers)
				}
				time.Sleep(5 * time.Millisecond)
			}

			resp = post()
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request after the panic: status %d, want 200", resp.StatusCode)
			}
			if got := resp.Header.Get("X-Nullgraph-Sample"); got != "1" {
				t.Fatalf("sample after the panic = %q, want 1 (the panicked request consumed 0)", got)
			}
			if _, err := nullgraph.ReadGraphBinary(resp.Body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// poolWorkers counts the goroutines parked in or running a par.Pool
// worker loop, the goroutines an engine with Workers > 1 owns.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "nullgraph/internal/par.(*Pool).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// panicWriter is a ResponseWriter whose body writes panic, standing in
// for a fault in the encoder after the status line is sent.
type panicWriter struct{ header http.Header }

func (w *panicWriter) Header() http.Header       { return w.header }
func (w *panicWriter) WriteHeader(int)           {}
func (w *panicWriter) Write([]byte) (int, error) { panic("injected encoding fault") }

// TestServerEncodePanicAborts pins the other half of the panic path:
// once the status line is written, the handler cannot answer 500, so
// it retires the engine, counts the panic and aborts the response with
// http.ErrAbortHandler, which makes net/http cut the connection.
func TestServerEncodePanicAborts(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Seed: 3})
	defer s.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(distBody(t, testDistribution(t, 0))))
	got := func() (p any) {
		defer func() { p = recover() }()
		s.Handler().ServeHTTP(&panicWriter{header: http.Header{}}, req)
		return nil
	}()
	if got != http.ErrAbortHandler {
		t.Fatalf("handler panic = %v, want http.ErrAbortHandler", got)
	}
	if n := s.Metrics().generatePanics.Load(); n != 1 {
		t.Fatalf("panics counted = %d, want 1", n)
	}
	// The status line went out as 200, so the response counts as
	// aborted (499), never as a 500 the client did not receive.
	s.metrics.mu.Lock()
	codes := maps.Clone(s.metrics.codes)
	s.metrics.mu.Unlock()
	if codes[499] != 1 || codes[http.StatusInternalServerError] != 0 {
		t.Fatalf("response codes = %v, want one 499 and no 500", codes)
	}
	if _, idle := s.pool.Stats(); idle != 0 {
		t.Fatalf("idle engines = %d, want 0: the engine of a panicked request was parked", idle)
	}
	if len(s.slots) != 0 {
		t.Fatal("the admission slot was not freed")
	}
}

// scrape fetches /metrics as text.
func scrape(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
