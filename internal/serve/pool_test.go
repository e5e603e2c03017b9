package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nullgraph"
)

// hashGraph digests a graph's shape and edges (order-sensitive — edge
// order is part of the deterministic output).
func hashGraph(g *nullgraph.Graph) uint64 {
	h := fnv64Offset
	h = hash64(h, uint64(g.NumVertices))
	for _, e := range g.Edges {
		h = hash64(h, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
	}
	return h
}

// testDistribution builds a small graphical distribution that differs
// per index, so each fingerprint has genuinely different work.
func testDistribution(t testing.TB, i int) *nullgraph.DegreeDistribution {
	t.Helper()
	dist, err := nullgraph.DistributionFromCounts(map[int64]int64{
		1: int64(6 + 2*i),
		2: 4,
		3: int64(2 + 2*(i%2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nullgraph.Validate(dist); err != nil {
		t.Fatal(err)
	}
	return dist
}

// TestPoolConcurrentDeterminism is the race test: N goroutines hammer
// M fingerprints, checking engines in and out under load. Half the
// keys have a seed of their own; the other half share one seed and
// differ only in distribution, so they share engines of one shape and
// every checkout may hand a session warm from another distribution.
// Every response is hashed while the lease is held and then compared
// against the one-shot reference for its (seed, sample) — if any
// request ever observed another session's graph (shared buffer, stale
// probability matrix, duplicated sample, crossed engine) the hash
// comparison or the distinct-sample check fails. Run under -race this
// also proves the pool's locking.
func TestPoolConcurrentDeterminism(t *testing.T) {
	const (
		numKeys       = 8
		numGoroutines = 8
		rounds        = 6
	)
	dists := make([]*nullgraph.DegreeDistribution, numKeys)
	opts := make([]nullgraph.Options, numKeys)
	fps := make([]uint64, numKeys)
	for i := range dists {
		dists[i] = testDistribution(t, i)
		seed := 1000 + uint64(i)
		if i >= numKeys/2 {
			seed = 2000 // one shape, four distributions
		}
		opts[i] = nullgraph.Options{Workers: 1, Seed: seed, SwapIterations: 4}
		fps[i] = Fingerprint(dists[i], opts[i])
	}
	for i := 0; i < numKeys; i++ {
		for j := i + 1; j < numKeys; j++ {
			if fps[i] == fps[j] {
				t.Fatalf("fingerprints %d and %d collide", i, j)
			}
		}
	}

	pool := NewPool(2)
	defer pool.Close()

	type sampleObs struct {
		key    int
		sample uint64
		hash   uint64
	}
	var (
		mu      sync.Mutex
		results []sampleObs
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < numGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				k := (g + r) % numKeys
				lease, err := pool.Acquire(fps[k], opts[k])
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				res, err := lease.Engine.Generate(dists[k])
				if err != nil {
					lease.Release(false)
					t.Errorf("generate: %v", err)
					return
				}
				// Hash before release: the Result aliases engine buffers.
				h := hashGraph(res.Graph)
				sample := lease.Sample
				lease.Release(true)
				mu.Lock()
				results = append(results, sampleObs{key: k, sample: sample, hash: h})
				mu.Unlock()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Per key: every sample index issued at most once, and every
	// response bit-identical to its independent one-shot reference.
	seen := make(map[int]map[uint64]bool)
	for _, obs := range results {
		if seen[obs.key] == nil {
			seen[obs.key] = make(map[uint64]bool)
		}
		if seen[obs.key][obs.sample] {
			t.Fatalf("key %d issued sample %d twice", obs.key, obs.sample)
		}
		seen[obs.key][obs.sample] = true

		ref := opts[obs.key]
		ref.Seed = nullgraph.SampleSeed(opts[obs.key].Seed, obs.sample)
		want, err := nullgraph.Generate(dists[obs.key], ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashGraph(want.Graph); got != obs.hash {
			t.Fatalf("key %d sample %d: pooled response differs from one-shot reference — a request observed another session's state", obs.key, obs.sample)
		}
	}
}

// TestPoolCanceledLeaseReusable locks the cancellation contract: a
// request whose context ends leaves the engine in a reusable state,
// the lease checks back in healthy, and the next lease on the key
// still produces the deterministic sample for its index — on the very
// engine that was canceled twice, once before any work and once
// mid-run on another distribution of the same shape.
func TestPoolCanceledLeaseReusable(t *testing.T) {
	dist := testDistribution(t, 0)
	opt := nullgraph.Options{Workers: 1, Seed: 7, SwapIterations: 4}
	fp := Fingerprint(dist, opt)
	pool := NewPool(2)
	defer pool.Close()

	// Pre-canceled context: deterministic no-work path.
	lease, err := pool.Acquire(fp, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lease.Engine.GenerateContext(ctx, dist); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled generate: err = %v, want context.Canceled", err)
	}
	canceled := lease.Engine
	lease.Release(true)

	// Mid-run cancellation on a larger job with the same options
	// (opportunistic: on a machine fast enough to finish inside the
	// deadline the call just succeeds, which exercises the same checkin
	// path).
	big, err := nullgraph.PowerLawDistribution(200_000, 1, 400, 2.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := pool.Acquire(Fingerprint(big, opt), opt)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Engine != canceled {
		t.Fatal("a same-shape request did not reuse the idle canceled engine")
	}
	tctx, tcancel := context.WithTimeout(context.Background(), time.Millisecond)
	_, gerr := bl.Engine.GenerateContext(tctx, big)
	tcancel()
	if gerr != nil && !errors.Is(gerr, context.DeadlineExceeded) {
		t.Fatalf("mid-run cancel: err = %v, want context.DeadlineExceeded or nil", gerr)
	}
	bl.Release(true)

	// The canceled engine (now idle in the pool, and holding the big
	// distribution's matrix if the cancel came after that phase) must
	// serve the next lease correctly. Sample 0 was consumed by the canceled lease; sample 1
	// is still deterministic per index.
	next, err := pool.Acquire(fp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if next.Sample != 1 {
		t.Fatalf("sample after canceled lease = %d, want 1 (indices are never reissued)", next.Sample)
	}
	if next.Engine != canceled {
		t.Fatal("the next lease did not reuse the canceled engine")
	}
	res, err := next.Engine.Generate(dist)
	if err != nil {
		t.Fatal(err)
	}
	got := hashGraph(res.Graph)
	next.Release(true)
	ref := opt
	ref.Seed = nullgraph.SampleSeed(opt.Seed, 1)
	want, err := nullgraph.Generate(dist, ref)
	if err != nil {
		t.Fatal(err)
	}
	if hashGraph(want.Graph) != got {
		t.Fatal("post-cancel sample 1 differs from its one-shot reference")
	}
}

// TestFingerprintSeparatesSpaces locks the space axis of the pool key:
// every pair of distinct sampling spaces fingerprints differently (an
// engine holds space-specific chain state, so two spaces must never
// share a session), and at the pool level a warm engine parked under
// one space is never handed to a request for another — while the same
// space does reuse it.
func TestFingerprintSeparatesSpaces(t *testing.T) {
	dist := testDistribution(t, 2)
	spaces := []nullgraph.Space{
		nullgraph.SpaceSimple, nullgraph.SpaceSimpleVertex,
		nullgraph.SpaceLoopyStub, nullgraph.SpaceLoopyVertex,
		nullgraph.SpaceMultigraphStub, nullgraph.SpaceMultigraphVertex,
	}
	base := nullgraph.Options{Workers: 1, Seed: 5, SwapIterations: 2}
	fps := make([]uint64, len(spaces))
	for i, sp := range spaces {
		opt := base
		opt.Space = sp
		fps[i] = Fingerprint(dist, opt)
	}
	for i := range fps {
		for j := i + 1; j < len(fps); j++ {
			if fps[i] == fps[j] {
				t.Fatalf("spaces %s and %s share a fingerprint; their engines would be pooled together", spaces[i], spaces[j])
			}
		}
	}

	pool := NewPool(4)
	defer pool.Close()
	simple := base
	simple.Space = nullgraph.SpaceSimple
	loopy := base
	loopy.Space = nullgraph.SpaceLoopyStub

	a, err := pool.Acquire(Fingerprint(dist, simple), simple)
	if err != nil {
		t.Fatal(err)
	}
	warm := a.Engine
	a.Release(true) // parked under the simple key

	b, err := pool.Acquire(Fingerprint(dist, loopy), loopy)
	if err != nil {
		t.Fatal(err)
	}
	if b.Engine == warm {
		t.Fatal("a loopy-space request received the simple-space engine")
	}
	b.Release(true)

	c, err := pool.Acquire(Fingerprint(dist, simple), simple)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != warm {
		t.Fatal("a same-space request did not reuse the warm engine")
	}
	c.Release(true)
}

// TestPoolIdleCapAndClose pins the global retention cap and shutdown:
// however many shapes check in, at most maxIdle engines stay parked in
// total; Close fails further Acquires and closes the parked engines,
// and Release after Close closes the engine instead of leaking it into
// a dead pool.
func TestPoolIdleCapAndClose(t *testing.T) {
	dist := testDistribution(t, 1)
	pool := NewPool(2)

	var leases []*Lease
	for seed := uint64(1); seed <= 4; seed++ {
		opt := nullgraph.Options{Workers: 1, Seed: seed, SwapIterations: 2}
		l, err := pool.Acquire(Fingerprint(dist, opt), opt)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	for i, l := range leases {
		l.Release(true)
		want := min(i+1, 2)
		if keys, idle := pool.Stats(); idle != want || keys != 4 {
			t.Fatalf("after %d releases: keys, idle = %d, %d; want 4, %d", i+1, keys, idle, want)
		}
	}
	// The two newest checkins are parked; the two oldest were closed.
	for i, l := range leases {
		if closed := engineClosed(t, l.Engine, dist); closed != (i < 2) {
			t.Fatalf("engine %d closed = %v, want %v", i, closed, i < 2)
		}
	}

	opt := nullgraph.Options{Workers: 1, Seed: 9, SwapIterations: 2}
	fp := Fingerprint(dist, opt)
	c, err := pool.Acquire(fp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Acquire(fp, opt); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("acquire after close: err = %v, want ErrPoolClosed", err)
	}
	if !engineClosed(t, leases[3].Engine, dist) {
		t.Fatal("Close left a parked engine open")
	}
	c.Release(true) // pool closed: engine must be closed, not parked
	if _, idle := pool.Stats(); idle != 0 {
		t.Fatalf("idle after close = %d, want 0", idle)
	}
	if !engineClosed(t, c.Engine, dist) {
		t.Fatal("Release after Close left the engine open")
	}
}

// engineClosed reports whether e has been closed: a closed engine's
// worker pool panics on its next generation.
func engineClosed(t *testing.T, e *nullgraph.Engine, dist *nullgraph.DegreeDistribution) (closed bool) {
	t.Helper()
	defer func() { closed = recover() != nil }()
	if _, err := e.Generate(dist); err != nil {
		t.Fatal(err)
	}
	return false
}

// TestPoolLRUEviction pins the idle list's order: Acquire takes the
// most recently parked engine of its shape, and a checkin beyond the
// cap closes the least recently parked engine of any shape, so the
// idle count never exceeds the cap.
func TestPoolLRUEviction(t *testing.T) {
	dist := testDistribution(t, 0)
	a := nullgraph.Options{Workers: 1, Seed: 1, SwapIterations: 2}
	b := nullgraph.Options{Workers: 1, Seed: 2, SwapIterations: 2}
	pool := NewPool(3)
	defer pool.Close()
	acquire := func(opt nullgraph.Options) *Lease {
		t.Helper()
		l, err := pool.Acquire(Fingerprint(dist, opt), opt)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	a1, a2, b1 := acquire(a), acquire(a), acquire(b)
	a1.Release(true)
	a2.Release(true)
	b1.Release(true) // idle, oldest first: a1 a2 b1

	got := acquire(a)
	if got.Engine != a2.Engine {
		t.Fatal("Acquire did not take the most recently parked engine of its shape")
	}
	got.Release(true) // idle: a1 b1 a2

	b2 := acquire(b)
	if b2.Engine != b1.Engine {
		t.Fatal("a parked engine of the request's shape was not reused")
	}
	b3 := acquire(b) // none left of shape b: a new engine
	b2.Release(true) // idle: a1 a2 b1
	b3.Release(true) // over the cap: a1 is closed
	if _, idle := pool.Stats(); idle != 3 {
		t.Fatalf("idle = %d, want the cap 3", idle)
	}
	if !engineClosed(t, a1.Engine, dist) {
		t.Fatal("the least recently parked engine was not closed on overflow")
	}
	for _, l := range []*Lease{a2, b1, b3} {
		if engineClosed(t, l.Engine, dist) {
			t.Fatal("a recently parked engine was closed")
		}
	}
}

// TestPoolPrefersSameFingerprint pins Acquire's first choice: an idle
// engine whose last request had the request's fingerprint (its cached
// probability matrix is the one the request needs) wins over the
// shape's most recently parked engine; a fingerprint that no idle
// engine served takes the most recently parked one.
func TestPoolPrefersSameFingerprint(t *testing.T) {
	distA, distB, distC := testDistribution(t, 0), testDistribution(t, 1), testDistribution(t, 2)
	opt := nullgraph.Options{Workers: 1, Seed: 4, SwapIterations: 2}
	pool := NewPool(3)
	defer pool.Close()
	acquire := func(dist *nullgraph.DegreeDistribution) *Lease {
		t.Helper()
		l, err := pool.Acquire(Fingerprint(dist, opt), opt)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	a, b := acquire(distA), acquire(distB)
	a.Release(true)
	b.Release(true) // idle, oldest first: a b

	got := acquire(distA)
	if got.Engine != a.Engine {
		t.Fatal("fingerprint A did not get back the engine that last served it")
	}
	got.Release(true) // idle: b a

	c := acquire(distC)
	if c.Engine != a.Engine {
		t.Fatal("a new fingerprint did not take the most recently parked engine")
	}
	c.Release(true)
}

// TestPoolSharesEngineAcrossDistributions pins the split between the
// pool's two keys: requests that differ only in distribution reuse one
// warm engine, yet each fingerprint keeps its own sample counter, and
// every response equals the one-shot reference for its own
// (distribution, seed, sample).
func TestPoolSharesEngineAcrossDistributions(t *testing.T) {
	distA, distB := testDistribution(t, 0), testDistribution(t, 3)
	opt := nullgraph.Options{Workers: 1, Seed: 21, SwapIterations: 4}
	pool := NewPool(1)
	defer pool.Close()

	var engine *nullgraph.Engine
	for _, step := range []struct {
		name   string
		dist   *nullgraph.DegreeDistribution
		sample uint64
	}{{"A", distA, 0}, {"B", distB, 0}, {"A", distA, 1}, {"B", distB, 1}, {"A", distA, 2}} {
		l, err := pool.Acquire(Fingerprint(step.dist, opt), opt)
		if err != nil {
			t.Fatal(err)
		}
		if l.Sample != step.sample {
			t.Fatalf("fingerprint %s: sample = %d, want %d (counters are per fingerprint)", step.name, l.Sample, step.sample)
		}
		if engine == nil {
			engine = l.Engine
		} else if l.Engine != engine {
			t.Fatalf("fingerprint %s sample %d: the warm engine of the same shape was not reused", step.name, step.sample)
		}
		res, err := l.Engine.Generate(step.dist)
		if err != nil {
			t.Fatal(err)
		}
		got := hashGraph(res.Graph)
		l.Release(true)
		ref := opt
		ref.Seed = nullgraph.SampleSeed(opt.Seed, step.sample)
		want, err := nullgraph.Generate(step.dist, ref)
		if err != nil {
			t.Fatal(err)
		}
		if hashGraph(want.Graph) != got {
			t.Fatalf("fingerprint %s sample %d on a shared engine differs from its one-shot reference", step.name, step.sample)
		}
	}
	if keys, idle := pool.Stats(); keys != 2 || idle != 1 {
		t.Fatalf("keys, idle = %d, %d; want 2, 1", keys, idle)
	}
}

// TestPoolSeparatesShapes pins the other side of shape pooling: an
// engine parked for one seed, space, stop policy or swap budget is
// never handed to a request with other options, however many of them
// are parked.
func TestPoolSeparatesShapes(t *testing.T) {
	dist := testDistribution(t, 2)
	base := nullgraph.Options{Workers: 1, Seed: 5, SwapIterations: 2}
	variants := []nullgraph.Options{base}
	for _, mod := range []func(*nullgraph.Options){
		func(o *nullgraph.Options) { o.Seed = 6 },
		func(o *nullgraph.Options) { o.Space = nullgraph.SpaceLoopyStub },
		func(o *nullgraph.Options) { o.Space = nullgraph.SpaceMultigraphVertex },
		func(o *nullgraph.Options) { o.Connected = true },
		func(o *nullgraph.Options) { o.SwapIterations = 3 },
		func(o *nullgraph.Options) { o.RefineProbabilities = 1 },
		func(o *nullgraph.Options) {
			o.StopPolicy = &nullgraph.StopPolicy{Statistic: nullgraph.StopOnSuccessRate}
		},
	} {
		opt := base
		mod(&opt)
		variants = append(variants, opt)
	}
	pool := NewPool(len(variants))
	defer pool.Close()

	parked := make([]*nullgraph.Engine, len(variants))
	for i, opt := range variants {
		l, err := pool.Acquire(Fingerprint(dist, opt), opt)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i; j++ {
			if l.Engine == parked[j] {
				t.Fatalf("variant %d received variant %d's engine", i, j)
			}
		}
		parked[i] = l.Engine
		l.Release(true)
	}
	// Every engine is parked now; each variant must get its own back.
	for i, opt := range variants {
		l, err := pool.Acquire(Fingerprint(dist, opt), opt)
		if err != nil {
			t.Fatal(err)
		}
		if l.Engine != parked[i] {
			t.Fatalf("variant %d did not get its own parked engine back", i)
		}
		l.Release(true)
	}
}
