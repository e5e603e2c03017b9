package rng

import "math"

// BlockLen is the number of uint64 variates a Block pre-generates per
// refill. 64 draws (512 B) is small enough to live in per-worker stack
// frames or scratch cells yet long enough that the xoshiro state stays
// in registers for the whole refill loop.
const BlockLen = 64

// Block is a Source that generates variates in batches of BlockLen
// instead of one call per draw. It produces the *exact same* uint64
// sequence as calling Source.Uint64 repeatedly after the same Reseed —
// consumers can switch between Source and Block without perturbing any
// seeded stream, which is what keeps the repo-wide bit-reproducibility
// contract (instrumented-vs-plain, goldens, naive-reference tests)
// intact.
//
// The win is mechanical: a per-call Source.Uint64 through a pointer
// forces the four state words through memory on every draw, while
// refill keeps them in registers for BlockLen rounds and touches memory
// once. Like Source, a Block is NOT safe for concurrent use; derive one
// per worker.
//
// The zero value is not seeded; call Reseed before use.
type Block struct {
	src Source
	i   int
	buf [BlockLen]uint64
}

// Reseed re-initializes the block in place to the state New(seed)
// produces and discards any buffered variates, so the next draw is the
// first draw of stream `seed`.
//
//nullgraph:hotpath
func (b *Block) Reseed(seed uint64) {
	b.src.Reseed(seed)
	b.i = BlockLen
}

// refill regenerates the buffer. Kept separate from Uint64 so the
// common path (buffered draw) stays small enough to inline.
//
//nullgraph:hotpath
func (b *Block) refill() {
	s0, s1, s2, s3 := b.src.s0, b.src.s1, b.src.s2, b.src.s3
	for i := range b.buf {
		b.buf[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	b.src.s0, b.src.s1, b.src.s2, b.src.s3 = s0, s1, s2, s3
	b.i = 0
}

// Uint64 returns the next 64 uniformly random bits of the stream.
//
//nullgraph:hotpath
func (b *Block) Uint64() uint64 {
	if b.i == BlockLen {
		b.refill()
	}
	b.i++
	return b.buf[b.i-1]
}

// Bool returns a fair coin flip, consuming one variate like Source.Bool.
// It repeats Uint64's body rather than calling it: Uint64 inlined into
// Bool exceeds the inlining budget, and the swap sweep draws one coin
// per pair, so a call there would cost a register spill per proposal.
//
//nullgraph:hotpath
func (b *Block) Bool() bool {
	if b.i == BlockLen {
		b.refill()
	}
	b.i++
	return b.buf[b.i-1]&1 == 1
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
//
//nullgraph:hotpath
func (b *Block) Float64() float64 {
	return float64(b.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform float64 in (0, 1). The retry is live —
// see Source.Float64Open for why f == 1.0 occurs with probability 2^-53
// — and must be kept for bit-identity with the Source form.
//
//nullgraph:hotpath
func (b *Block) Float64Open() float64 {
	for {
		f := (float64(b.Uint64()>>11) + 0.5) * (1.0 / (1 << 53))
		if f < 1 {
			return f
		}
	}
}

// Uint64n returns a uniform uint64 in [0, n) for n > 0 via Lemire
// rejection, consuming variates in the exact order Source.Uint64n does.
// The rejection tail is split into uint64nRetry so this fast path —
// one multiply plus an almost-never-taken compare — inlines into
// per-index hot loops. For n == 0 the result is unspecified (0); unlike
// Source.Uint64n it does not spend a branch on the panic.
//
//nullgraph:hotpath
func (b *Block) Uint64n(n uint64) uint64 {
	hi, lo := mul64(b.Uint64(), n)
	if lo < n {
		return b.uint64nRetry(lo, hi, n)
	}
	return hi
}

//nullgraph:hotpath
func (b *Block) uint64nRetry(lo, hi, n uint64) uint64 {
	threshold := (-n) % n
	for lo < threshold {
		hi, lo = mul64(b.Uint64(), n)
	}
	return hi
}

// GeometricSkip is a Geom(p) sampler with the log term of the inversion
// formula hoisted out: Source.Geometric recomputes math.Log1p(-p) on
// every draw even though p is loop-invariant in edge-skipping, and that
// transcendental is roughly half the cost of a skip draw. A GeometricSkip
// is immutable and safe to copy or share.
//
// Next performs the exact floating-point operations Source.Geometric
// performs — same log, same division (not a reciprocal multiply, whose
// rounding can differ by 1 ulp), same clamps — so for the same consumed
// variate the two forms return identical values. A paired-draw test pins
// this over 1e6 draws.
type GeometricSkip struct {
	logq float64 // log(1-p) < 0; -Inf when p >= 1
}

// NewGeometricSkip returns a sampler for Geom(p). It panics if p <= 0,
// matching Source.Geometric. For p >= 1 every draw returns 0.
func NewGeometricSkip(p float64) GeometricSkip {
	if p <= 0 {
		panic("rng: NewGeometricSkip called with p <= 0")
	}
	if p >= 1 {
		return GeometricSkip{logq: math.Inf(-1)}
	}
	return GeometricSkip{logq: math.Log1p(-p)}
}

// Next draws one skip length from r. Aside from the astronomically rare
// Float64Open retry, the path is branch-free: the two clamps compile to
// conditional moves. For p >= 1, log(U)/-Inf is +0 and Next returns 0
// while still consuming one variate; callers that need Geometric's
// draw-free p >= 1 short-circuit must branch themselves (edgeskip's
// chunk loop does not: it never runs with p = 1).
//
// Next draws from an unbatched Source deliberately: each draw already
// pays for a log(), so batching the underlying uint64s saves nothing
// and the Block buffer round-trip showed up as a measurable net loss in
// edgeskip profiles. Use NextBlock only when the surrounding loop
// already holds a Block for other draws.
//
//nullgraph:hotpath
func (g GeometricSkip) Next(r *Source) int64 {
	l := math.Floor(math.Log(r.Float64Open()) / g.logq)
	if l < 0 {
		return 0
	}
	if l > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(l)
}

// NextBlock is Next drawing from a batched Block, in lockstep with the
// Source form (same consumed variate, same result).
//
//nullgraph:hotpath
func (g GeometricSkip) NextBlock(b *Block) int64 {
	l := math.Floor(math.Log(b.Float64Open()) / g.logq)
	if l < 0 {
		return 0
	}
	if l > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(l)
}
