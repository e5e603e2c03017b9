package serve

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"nullgraph"
)

// ErrPoolClosed reports an Acquire on a closed pool.
var ErrPoolClosed = errors.New("serve: pool closed")

// Pool checks nullgraph.Engine sessions in and out. It does two jobs
// under one mutex, keyed differently:
//
//   - Sample counters are kept per request fingerprint. The pool
//     allocates every lease a distinct sample index from its
//     fingerprint's monotone counter and positions the engine with
//     SetSample before handing it out, so concurrent requests on one
//     fingerprint draw distinct, deterministic members of one seed's
//     batch — never the same graph, whichever engine serves them.
//   - Idle engines are pooled by engine shape: the hash of the Options
//     alone (Fingerprint with a nil distribution). An engine serves
//     any distribution — every request hands its own to
//     GenerateContext, and the engine keys its probability-matrix
//     cache by the classes — so a warm session of the right shape
//     serves a never-seen distribution too. Acquire prefers an engine
//     whose last request had the same fingerprint, whose cache holds
//     the matrix it needs, and only then takes the shape's most
//     recently parked engine.
//
// Every idle engine sits on one list ordered by checkin time, capped
// at maxIdle in total; a checkin beyond the cap closes the least
// recently parked engine. Memory therefore stays bounded however many
// distributions the traffic carries.
type Pool struct {
	// maxIdle caps the idle engines parked across all shapes.
	maxIdle int

	mu sync.Mutex
	// next maps a fingerprint to its next unissued sample index.
	// Monotone: indices are never reissued, even when a request is
	// canceled, so two responses can never carry the same sample.
	next map[uint64]uint64
	// idle holds the parked engines, least recently parked first.
	idle   []idleEngine
	closed bool
}

// idleEngine is one parked session, the shape it was built for and
// the fingerprint of the last request it served.
type idleEngine struct {
	shape, fp uint64
	engine    *nullgraph.Engine
}

// NewPool returns a pool retaining at most maxIdle idle engines in
// total (<= 0 defaults to GOMAXPROCS).
func NewPool(maxIdle int) *Pool {
	if maxIdle <= 0 {
		maxIdle = runtime.GOMAXPROCS(0)
	}
	return &Pool{maxIdle: maxIdle, next: make(map[uint64]uint64)}
}

// Lease is one checked-out engine positioned at one sample index. The
// holder has exclusive use of Engine until Release; the engine-busy
// guard backs this up, so a pool bug would surface as ErrEngineBusy
// rather than a race.
type Lease struct {
	// Engine is the session, already positioned at Sample.
	Engine *nullgraph.Engine
	// Sample is the batch index this lease was issued.
	Sample uint64

	pool      *Pool
	shape, fp uint64
	released  bool
}

// Acquire issues the next sample index of fingerprint fp and checks
// out an idle engine of opt's shape: the most recently parked one that
// last served fp, else the most recently parked one of the shape, else
// a new engine built with opt. The returned lease's engine is positioned
// at the lease's sample index.
func (p *Pool) Acquire(fp uint64, opt nullgraph.Options) (*Lease, error) {
	shape := Fingerprint(nil, opt)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	sample := p.next[fp]
	p.next[fp] = sample + 1
	pick := -1
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].shape != shape {
			continue
		}
		if pick < 0 {
			pick = i
		}
		if p.idle[i].fp == fp {
			pick = i
			break
		}
	}
	var eng *nullgraph.Engine
	if pick >= 0 {
		eng = p.idle[pick].engine
		p.idle = slices.Delete(p.idle, pick, pick+1)
	}
	p.mu.Unlock()
	if eng == nil {
		eng = nullgraph.NewEngine(opt)
	}
	eng.SetSample(sample)
	return &Lease{Engine: eng, Sample: sample, pool: p, shape: shape, fp: fp}, nil
}

// Release returns the lease's engine to the pool. healthy = false (the
// request hit an unexpected engine error or panicked) closes the
// session instead of recycling it; canceled and deadline-exceeded
// requests are healthy — cancellation is cooperative and leaves the
// engine reusable. A checkin beyond the idle cap closes the least
// recently parked engine. Idempotent: a second Release is a no-op.
func (l *Lease) Release(healthy bool) {
	if l.released {
		return
	}
	l.released = true
	if !healthy {
		l.Engine.Close()
		return
	}
	p := l.pool
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		l.Engine.Close()
		return
	}
	p.idle = append(p.idle, idleEngine{shape: l.shape, fp: l.fp, engine: l.Engine})
	var evicted *nullgraph.Engine
	if len(p.idle) > p.maxIdle {
		evicted = p.idle[0].engine
		p.idle = slices.Delete(p.idle, 0, 1)
	}
	p.mu.Unlock()
	if evicted != nil {
		evicted.Close()
	}
}

// Stats reports the number of distinct fingerprints seen and of idle
// engines parked.
func (p *Pool) Stats() (keys, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.next), len(p.idle)
}

// Close closes every idle engine and fails further Acquires. Leases
// still out close their engines on Release (the pool no longer
// accepts checkins).
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, ie := range idle {
		ie.engine.Close()
	}
	return nil
}

// String describes the pool for logs.
func (p *Pool) String() string {
	keys, idle := p.Stats()
	return fmt.Sprintf("serve.Pool{keys: %d, idle: %d}", keys, idle)
}
