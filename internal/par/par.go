// Package par provides the shared-memory parallel primitives used
// throughout the library: parallel loops over index ranges, parallel
// prefix sums, and reductions.
//
// The package mirrors the OpenMP constructs used by the paper
// ("parallel for", reductions, prefix sums) with goroutine worker pools.
// All functions are deterministic given a fixed worker count when the
// caller's per-index work is deterministic: ranges are split into
// contiguous chunks, one per worker, so a worker's ID fully determines
// the indices it touches.
package par

import (
	"runtime"
	"sync"
)

// Workers returns the effective worker count for a requested value.
// A request of <= 0 means "use GOMAXPROCS".
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Range describes a contiguous half-open index interval [Begin, End).
type Range struct {
	Begin int
	End   int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.End - r.Begin }

// Split partitions [0, n) into at most p contiguous, non-empty,
// near-equal ranges. It returns fewer than p ranges when n < p.
func Split(n, p int) []Range {
	return SplitInto(nil, n, p)
}

// SplitInto is Split appending into dst (usually dst[:0] of a reusable
// buffer), so steady-state callers can partition without allocating.
//
//nullgraph:hotpath
func SplitInto(dst []Range, n, p int) []Range {
	if n <= 0 || p <= 0 {
		return dst
	}
	if p > n {
		p = n
	}
	chunk := n / p
	rem := n % p
	begin := 0
	for i := 0; i < p; i++ {
		size := chunk
		if i < rem {
			size++
		}
		dst = append(dst, Range{Begin: begin, End: begin + size})
		begin += size
	}
	return dst
}

// NumChunks returns the number of ranges Split(n, p) produces.
func NumChunks(n, p int) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p > n {
		return n
	}
	return p
}

// For runs body(i) for every i in [0, n) using p workers (p <= 0 means
// GOMAXPROCS). Each worker owns one contiguous chunk. body must be safe
// to call concurrently for distinct indices.
func For(n, p int, body func(i int)) {
	ForRange(n, p, func(_ int, r Range) {
		for i := r.Begin; i < r.End; i++ {
			body(i)
		}
	})
}

// ForRange runs body(worker, range) once per contiguous chunk of [0, n),
// with at most p concurrent workers. The worker argument is the chunk
// index in [0, len(chunks)), usable for indexing per-worker state such
// as RNG streams or partial accumulators.
func ForRange(n, p int, body func(worker int, r Range)) {
	p = Workers(p)
	ranges := Split(n, p)
	if len(ranges) == 0 {
		return
	}
	if len(ranges) == 1 {
		body(0, ranges[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for w, r := range ranges {
		go func(w int, r Range) {
			defer wg.Done()
			body(w, r)
		}(w, r)
	}
	wg.Wait()
}

// Cell is a cache-line-padded int64 accumulator. Per-worker partials
// stored in a []Cell land on distinct cache lines, so concurrent workers
// incrementing their own cell never invalidate each other's line (false
// sharing) — measurable on reductions whose per-index work is tiny.
//
//nullgraph:padded
type Cell struct {
	V int64
	_ [56]byte // pad to 64 bytes
}

// SumInt64 computes the sum of f(i) over [0, n) in parallel.
func SumInt64(n, p int, f func(i int) int64) int64 {
	p = Workers(p)
	k := NumChunks(n, p)
	if k == 0 {
		return 0
	}
	partial := make([]Cell, k)
	ForRange(n, p, func(w int, r Range) {
		var s int64
		for i := r.Begin; i < r.End; i++ {
			s += f(i)
		}
		partial[w].V = s
	})
	var total int64
	for i := range partial {
		total += partial[i].V
	}
	return total
}

// MaxInt64 computes the maximum of f(i) over [0, n) in parallel.
// It returns 0 when n <= 0.
func MaxInt64(n, p int, f func(i int) int64) int64 {
	p = Workers(p)
	k := NumChunks(n, p)
	if k == 0 {
		return 0
	}
	partial := make([]Cell, k)
	ForRange(n, p, func(w int, r Range) {
		m := f(r.Begin)
		for i := r.Begin + 1; i < r.End; i++ {
			if v := f(i); v > m {
				m = v
			}
		}
		partial[w].V = m
	})
	m := partial[0].V
	for i := 1; i < len(partial); i++ {
		if partial[i].V > m {
			m = partial[i].V
		}
	}
	return m
}

// CountIf counts indices i in [0, n) for which pred(i) holds, in parallel.
func CountIf(n, p int, pred func(i int) bool) int64 {
	return SumInt64(n, p, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// PrefixSums computes the exclusive prefix sums of in, returning a slice
// of length len(in)+1 whose element k is the sum of in[0:k]. The final
// element is the total. The computation is a classic two-pass parallel
// scan: per-chunk partial sums, a serial scan over the (few) chunk
// totals, then a per-chunk local scan with the chunk offset.
func PrefixSums(in []int64, p int) []int64 {
	out := make([]int64, len(in)+1)
	PrefixSumsInto(in, out, p)
	return out
}

// PrefixSumsInto is PrefixSums writing into a caller-provided slice of
// length len(in)+1. It panics if out has the wrong length.
func PrefixSumsInto(in []int64, out []int64, p int) {
	if len(out) != len(in)+1 {
		panic("par: PrefixSumsInto output length must be len(in)+1")
	}
	n := len(in)
	if n == 0 {
		out[0] = 0
		return
	}
	p = Workers(p)
	k := NumChunks(n, p)
	partial := make([]Cell, k)
	ForRange(n, p, func(w int, r Range) {
		var s int64
		for i := r.Begin; i < r.End; i++ {
			s += in[i]
		}
		partial[w].V = s
	})
	// Serial exclusive scan over chunk totals: len(partial) <= p, cheap.
	var running int64
	offsets := make([]int64, k)
	for w := range partial {
		offsets[w] = running
		running += partial[w].V
	}
	ForRange(n, p, func(w int, r Range) {
		s := offsets[w]
		for i := r.Begin; i < r.End; i++ {
			out[i] = s
			s += in[i]
		}
	})
	out[n] = running
}

// Pool is a persistent team of worker goroutines executing parallel-for
// regions with zero steady-state allocations. ForRange spawns fresh
// goroutines (and allocates a closure per worker) on every call — fine
// for coarse regions, but a swap iteration dispatches dozens of small
// regions, where per-call allocation and spawn latency add up. A Pool
// parks its workers on a channel between regions and reuses its range
// buffer, so a dispatch is p channel sends, the body, and a WaitGroup
// join.
//
// A Pool is NOT safe for concurrent Run calls (one region at a time) and
// Run must not be called from inside a running body (no nesting). With
// one worker no goroutines are spawned and Run executes inline, making
// the serial path allocation- and synchronization-free.
type Pool struct {
	workers int
	ranges  []Range
	body    func(w int, r Range)
	tasks   chan int
	wg      sync.WaitGroup
	closed  bool
}

// NewPool creates a pool with Workers(workers) workers. Pools with more
// than one worker own parked goroutines; call Close when the pool is no
// longer needed so they exit. Forgetting Close leaks parked goroutines
// until process exit but no CPU.
func NewPool(workers int) *Pool {
	w := Workers(workers)
	pl := &Pool{workers: w, ranges: make([]Range, 0, w)}
	if w > 1 {
		pl.tasks = make(chan int, w)
		for i := 0; i < w; i++ {
			go pl.worker()
		}
	}
	return pl
}

// Workers returns the pool's worker count.
func (pl *Pool) Workers() int { return pl.workers }

func (pl *Pool) worker() {
	// The channel send in Run happens-before the receive here, ordering
	// the writes to pl.body and pl.ranges; wg.Done happens-before
	// wg.Wait returning, ordering body effects with the caller.
	for w := range pl.tasks {
		pl.body(w, pl.ranges[w])
		pl.wg.Done()
	}
}

// Run executes body(worker, range) over the chunks of [0, n), exactly
// like ForRange but on the pool's persistent workers. Chunking matches
// Split(n, pl.Workers()), so worker IDs and index ownership are
// identical to ForRange with the same width.
//
//nullgraph:hotpath
func (pl *Pool) Run(n int, body func(w int, r Range)) {
	if pl.closed {
		panic("par: Run on closed Pool")
	}
	pl.ranges = SplitInto(pl.ranges[:0], n, pl.workers)
	k := len(pl.ranges)
	if k == 0 {
		return
	}
	if k == 1 || pl.tasks == nil {
		for w, r := range pl.ranges {
			body(w, r)
		}
		return
	}
	pl.body = body
	pl.wg.Add(k)
	for w := 0; w < k; w++ {
		pl.tasks <- w
	}
	pl.wg.Wait()
	pl.body = nil
}

// Close releases the pool's worker goroutines. The pool must be idle;
// Run panics after Close. Close is idempotent.
func (pl *Pool) Close() {
	if pl.closed {
		return
	}
	pl.closed = true
	if pl.tasks != nil {
		close(pl.tasks)
	}
}

// Execute runs body over [0, n) on pl when pl is non-nil, else via
// ForRange with p workers. It lets scratch-reusing code (the swap
// engines) accept an optional pool without forcing every caller to own
// one.
//
//nullgraph:hotpath
func Execute(pl *Pool, n, p int, body func(w int, r Range)) {
	if pl != nil {
		pl.Run(n, body)
		return
	}
	ForRange(n, p, body)
}
