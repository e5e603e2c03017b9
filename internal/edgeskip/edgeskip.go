// Package edgeskip implements the paper's parallel edge-skipping
// generator (Algorithm IV.2): Bernoulli-model graph generation in O(m)
// expected work instead of O(n²) coin flips.
//
// All possible undirected edges are organized into one sample space per
// unordered degree-class pair (i, j):
//
//   - i == j: the C(n_i, 2) distinct vertex pairs inside the class,
//     indexed triangularly;
//   - i != j: the n_i·n_j pairs across the two classes, indexed
//     row-major.
//
// The ordered kind (Generator.GenerateOrdered) samples simple digraphs
// the same way, with one space per *ordered* class pair (i, j): every
// (i, j), not just j >= i, reading P(i,j) as the probability of an arc
// from a class-i vertex to a class-j vertex. Off the diagonal its spaces
// are the rectangular ones; on the diagonal a space holds the
// n_i·(n_i−1) ordered pairs of distinct vertices, with the self-pairs
// cut out of the indexing so loops are unrepresentable. Directed and
// undirected sampling are thus the same sample spaces under a different
// index map (Dutta, Fosdick and Clauset, arXiv:2105.12120).
//
// Within a space every pair is an edge independently with the same
// probability P(i,j), so instead of testing each index the generator
// samples geometric skip lengths l = ⌊log(r)/log(1−p)⌋ and jumps
// directly to the next success (Batagelj–Brandes / Miller–Hagberg).
//
// Vertex identifiers are class-ordered: class k owns the ID range
// [I(k), I(k)+n_k) where I is the prefix sum of class counts, exactly as
// the paper retrieves global IDs. Output is simple by construction:
// every distinct vertex pair (ordered pair, for the ordered kind) is
// considered at most once, and no space contains a self-pair.
//
// Parallelism is two-level: across spaces, and within any space larger
// than a chunk threshold by restarting the skip process at interior
// offsets (valid because the underlying Bernoulli process is
// memoryless). Each chunk draws from its own deterministic RNG stream
// and writes to its own buffer; buffers are concatenated in chunk order,
// so output is identical for a fixed seed regardless of scheduling or
// worker count.
package edgeskip

import (
	"fmt"
	"math"
	"sync/atomic"

	"nullgraph/internal/degseq"
	"nullgraph/internal/graph"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
	"nullgraph/internal/probgen"
	"nullgraph/internal/rng"
)

// Options configures generation.
type Options struct {
	// Workers is the parallel width; <= 0 means GOMAXPROCS.
	Workers int
	// Seed fixes the generated graph for any worker count.
	Seed uint64
	// ChunkSpan is the maximum index span one chunk covers; spaces
	// larger than this are split for intra-space parallelism. <= 0 uses
	// a default of 1<<22.
	ChunkSpan int64
	// Recorder, when non-nil, receives per-space skip-draw accounting
	// (obs.SpaceReport per class pair) after generation. Counting is
	// per-chunk and aggregated once at the join, so it is deterministic
	// for a fixed seed regardless of scheduling.
	Recorder *obs.Recorder
	// Stop, when non-nil, is polled cooperatively inside the skip loops;
	// a tripped flag makes Generate return par.ErrStopped. Polling never
	// consumes randomness, so untripped runs are bit-identical with or
	// without a Stop.
	Stop *par.Stop
}

const defaultChunkSpan = 1 << 22

// Per-kind stream salts: chunk c of a run draws from the stream
// Mix64(seed) ^ Mix64(c + salt).
const (
	unorderedSalt = 0x1234567
	orderedSalt   = 0x7654321
)

// chunk is one contiguous index interval of one class-pair space.
type chunk struct {
	ci, cj     int   // class indices; ci <= cj for the unordered kind
	begin, end int64 // index interval within the space
	prob       float64
}

// Generator is a reusable edge-skip sampler. It owns the chunk list,
// per-chunk edge buffers, draw counters, and the concatenated output
// buffer, so repeated Generate calls over same-shape inputs reach a
// steady state with near-zero allocations. A Generator is not safe for
// concurrent use.
//
// The returned edge list aliases the Generator's output buffer: it is
// valid until the next Generate call.
type Generator struct {
	workers  int
	span     int64
	rec      *obs.Recorder
	pool     *par.Pool // optional; dispatches the chunk workers when set
	chunks   []chunk
	buffers  [][]graph.Edge
	draws    []int64
	counts   []int64
	offsets  []int64
	edges    []graph.Edge
	next     atomic.Int64
	chunkFn  func(w int, r par.Range)
	chunkArg struct {
		seed    uint64
		ordered bool
		stop    *par.Stop
	}
}

// NewGenerator returns a Generator with opt's width, chunk span, and
// recorder. Per-call state (seed, stop) comes from Generate arguments;
// opt.Seed and opt.Stop are ignored here. When opt.Pool is set below
// (via SetPool) the chunk workers run on it instead of fresh goroutines.
func NewGenerator(opt Options) *Generator {
	span := opt.ChunkSpan
	if span <= 0 {
		span = defaultChunkSpan
	}
	g := &Generator{workers: par.Workers(opt.Workers), span: span, rec: opt.Recorder}
	// One prebound body for the dynamic chunk loop: workers race on the
	// shared counter, so steady-state dispatch allocates nothing.
	g.chunkFn = func(_ int, _ par.Range) {
		//nullgraph:cancelable
		for {
			c := int(g.next.Add(1)) - 1
			if c >= len(g.chunks) {
				return
			}
			if g.chunkArg.stop.Stopped() {
				return
			}
			var src rng.Source
			salt := uint64(unorderedSalt)
			if g.chunkArg.ordered {
				salt = orderedSalt
			}
			src.Reseed(rng.Mix64(g.chunkArg.seed) ^ rng.Mix64(uint64(c)+salt))
			g.buffers[c], g.draws[c] = runChunkInto(g.buffers[c][:0], g.offsets, g.chunks[c], g.chunkArg.ordered, &src, g.chunkArg.stop)
		}
	}
	return g
}

// SetPool attaches a persistent worker pool; subsequent Generate calls
// dispatch chunk workers on it (the pool's width overrides the
// configured worker count). A nil pool reverts to per-call goroutines.
func (g *Generator) SetPool(pl *par.Pool) {
	g.pool = pl
	if pl != nil {
		g.workers = pl.Workers()
	}
}

// Generate draws a simple random graph whose class-pair edge
// probabilities are given by m (dimension |D|), over the vertex layout
// of dist, using the given seed. The output is bit-identical to the
// package-level Generate with the same (dist, m, seed, workers,
// span) regardless of buffer reuse, pool attachment, or scheduling.
// When stop trips mid-run it returns par.ErrStopped and no graph.
func (g *Generator) Generate(dist *degseq.Distribution, m *probgen.Matrix, seed uint64, stop *par.Stop) (*graph.EdgeList, error) {
	g.counts = g.counts[:0]
	for _, c := range dist.Classes {
		g.counts = append(g.counts, c.Count)
	}
	return g.generate(g.counts, false, m, seed, stop)
}

// GenerateOrdered draws a simple digraph — each edge (U, V) of the
// result is the arc U→V — whose ordered class-pair arc probabilities
// are given by m: P(i,j) is the probability of an arc from a specific
// class-i vertex to a specific class-j vertex, and m need not be
// symmetric. counts[i] is the size of class i; vertex IDs are
// class-ordered as in Generate. Output, reuse and stop behave as in
// Generate, with the ordered kind's own chunk streams.
func (g *Generator) GenerateOrdered(counts []int64, m *probgen.Matrix, seed uint64, stop *par.Stop) (*graph.EdgeList, error) {
	return g.generate(counts, true, m, seed, stop)
}

// generate runs the edge-skip process over the class layout counts,
// with one space per unordered class pair, or per ordered one.
func (g *Generator) generate(counts []int64, ordered bool, m *probgen.Matrix, seed uint64, stop *par.Stop) (*graph.EdgeList, error) {
	k := len(counts)
	if m.Dim() != k {
		return nil, fmt.Errorf("edgeskip: matrix dim %d != |D| %d", m.Dim(), k)
	}

	// Vertex offsets: exclusive prefix sums of class counts, into the
	// reusable buffer. Matches dist.VertexOffsets.
	g.offsets = append(g.offsets[:0], 0)
	for i, c := range counts {
		g.offsets = append(g.offsets, g.offsets[i]+c)
	}
	n := g.offsets[k]
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("edgeskip: %d vertices exceed int32 IDs", n)
	}

	// Enumerate chunks. Spaces with zero probability contribute nothing
	// and are skipped outright.
	g.chunks = g.chunks[:0]
	for i := 0; i < k; i++ {
		ni := counts[i]
		j := i
		if ordered {
			j = 0
		}
		for ; j < k; j++ {
			prob := m.At(i, j)
			if prob <= 0 {
				continue
			}
			end := ni * counts[j]
			switch {
			case i == j && ordered:
				end = ni * (ni - 1)
			case i == j:
				end = ni * (ni - 1) / 2
			}
			for b := int64(0); b < end; b += g.span {
				e := b + g.span
				if e > end {
					e = end
				}
				g.chunks = append(g.chunks, chunk{ci: i, cj: j, begin: b, end: e, prob: prob})
			}
		}
	}

	// Dynamic scheduling over chunks (sizes are wildly uneven); each
	// chunk's stream is keyed by its index so the result is independent
	// of which worker runs it. Per-chunk buffers keep their capacity
	// across calls; only growth allocates.
	for len(g.buffers) < len(g.chunks) {
		g.buffers = append(g.buffers, nil)
	}
	for len(g.draws) < len(g.chunks) {
		g.draws = append(g.draws, 0)
	}
	g.next.Store(0)
	g.chunkArg.seed, g.chunkArg.ordered, g.chunkArg.stop = seed, ordered, stop
	par.Execute(g.pool, g.workers, g.workers, g.chunkFn)

	if stop.Stopped() {
		return nil, par.ErrStopped
	}

	if obs.Enabled && g.rec != nil {
		recordSpaces(g.rec, g.chunks, g.buffers[:len(g.chunks)], g.draws[:len(g.chunks)])
	}

	g.edges = g.edges[:0]
	for _, b := range g.buffers[:len(g.chunks)] {
		g.edges = append(g.edges, b...)
	}
	return graph.NewEdgeList(g.edges, int(n)), nil
}

// Generate draws a simple random graph whose class-pair edge
// probabilities are given by m (dimension |D|), over the vertex layout
// of dist. It returns the edge list with NumVertices = Σ n_k. One-shot
// scratch; hot loops should hold a Generator.
func Generate(dist *degseq.Distribution, m *probgen.Matrix, opt Options) (*graph.EdgeList, error) {
	return NewGenerator(opt).Generate(dist, m, opt.Seed, opt.Stop)
}

// recordSpaces merges per-chunk draw/edge counts back into one record
// per class-pair space (chunks are enumerated in ascending (ci, cj)
// order, so the merged spaces come out sorted and deterministic).
func recordSpaces(rec *obs.Recorder, chunks []chunk, buffers [][]graph.Edge, draws []int64) {
	var spaces []obs.SpaceReport
	for c, ch := range chunks {
		if len(spaces) == 0 || spaces[len(spaces)-1].ClassI != ch.ci || spaces[len(spaces)-1].ClassJ != ch.cj {
			spaces = append(spaces, obs.SpaceReport{ClassI: ch.ci, ClassJ: ch.cj, Probability: ch.prob})
		}
		sp := &spaces[len(spaces)-1]
		sp.Pairs += ch.end - ch.begin
		sp.Draws += draws[c]
		sp.Edges += int64(len(buffers[c]))
	}
	rec.SetEdgeSkip(spaces)
}

// runChunkInto samples the Bernoulli process on [c.begin, c.end) of the
// (c.ci, c.cj) space of the given kind over the class layout offsets,
// appending into out (usually buf[:0] of a reusable buffer). It also
// returns the number of geometric skip lengths drawn
// (the observability layer's per-space cost signal; the degenerate
// prob >= 1 path emits without drawing, so it reports 0). The stop flag
// is polled every few thousand draws; an abandoned chunk's buffer is
// discarded by the caller.
//
//nullgraph:hotpath
func runChunkInto(out []graph.Edge, offsets []int64, c chunk, ordered bool, src *rng.Source, stop *par.Stop) ([]graph.Edge, int64) {
	if cap(out) == 0 {
		expected := float64(c.end-c.begin) * c.prob
		out = make([]graph.Edge, 0, int(expected*1.15)+8)
	}
	baseI := offsets[c.ci]
	baseJ := offsets[c.cj]
	nj := offsets[c.cj+1] - baseJ
	sp := rectangular
	switch {
	case c.ci == c.cj && ordered:
		sp = offDiagonal
	case c.ci == c.cj:
		sp = lowerTriangle
	}
	// x is the next candidate index; the first draw positions it at
	// begin + skip.
	if c.prob >= 1 {
		// Degenerate but valid: every index is an edge.
		//nullgraph:cancelable
		for x := c.begin; x < c.end; x++ {
			if (x-c.begin)&8191 == 0 && stop.Stopped() {
				return out, 0
			}
			out = append(out, decode(sp, x, baseI, baseJ, nj))
		}
		return out, 0
	}
	// The success probability is chunk-invariant, so the log(1-p) term of
	// the inversion formula is hoisted into a GeometricSkip; each draw
	// performs the exact floating-point operations Source.Geometric would
	// (pinned by TestGeometricSkipPairedIdentity), at roughly two thirds
	// of the cost.
	skip := rng.NewGeometricSkip(c.prob)
	var ndraws int64 = 1
	x := c.begin + skip.Next(src)
	//nullgraph:cancelable
	for x < c.end {
		if ndraws&2047 == 0 && stop.Stopped() {
			return out, ndraws
		}
		out = append(out, decode(sp, x, baseI, baseJ, nj))
		x += 1 + skip.Next(src)
		ndraws++
	}
	return out, ndraws
}

// space is how a class-pair space maps an index to a vertex pair.
type space uint8

const (
	rectangular   space = iota // i != j: row-major over n_i·n_j pairs
	lowerTriangle              // unordered diagonal: C(n_i, 2) pairs
	offDiagonal                // ordered diagonal: n_i·(n_i−1) pairs, no self-pairs
)

// decode maps a space index to its global vertex pair.
//
//nullgraph:hotpath
func decode(sp space, x, baseI, baseJ, nj int64) graph.Edge {
	switch sp {
	case lowerTriangle:
		u, v := triangular(x)
		return graph.Edge{U: int32(baseI + u), V: int32(baseI + v)}
	case offDiagonal:
		// Row u has nj−1 columns; column r maps to v = r, skipping
		// v == u.
		u := x / (nj - 1)
		v := x % (nj - 1)
		if v >= u {
			v++
		}
		return graph.Edge{U: int32(baseI + u), V: int32(baseI + v)}
	}
	u := x / nj
	v := x % nj
	return graph.Edge{U: int32(baseI + u), V: int32(baseJ + v)}
}

// triangular inverts x = u(u−1)/2 + v with 0 <= v < u: the strict
// lower-triangular enumeration of within-class pairs. The float64
// estimate is corrected by ±1 so the decode is exact for any x within
// int64's triangular range.
//
//nullgraph:hotpath
func triangular(x int64) (u, v int64) {
	u = int64((1 + math.Sqrt(1+8*float64(x))) / 2)
	for u*(u-1)/2 > x {
		u--
	}
	for (u+1)*u/2 <= x {
		u++
	}
	v = x - u*(u-1)/2
	return u, v
}

// ExpectedEdges returns the expected edge count of the Bernoulli process
// defined by (dist, m); identical to probgen.ExpectedEdges but local to
// this package's decode conventions for use in tests.
func ExpectedEdges(dist *degseq.Distribution, m *probgen.Matrix) float64 {
	return probgen.ExpectedEdges(dist, m)
}

// GenerateBernoulliReference flips one coin per candidate pair — the
// O(n²) model the skip process compresses. Only for validation on tiny
// inputs.
func GenerateBernoulliReference(dist *degseq.Distribution, m *probgen.Matrix, seed uint64) (*graph.EdgeList, error) {
	k := dist.NumClasses()
	if m.Dim() != k {
		return nil, fmt.Errorf("edgeskip: matrix dim %d != |D| %d", m.Dim(), k)
	}
	offsets := dist.VertexOffsets(1)
	n := dist.NumVertices()
	src := rng.New(seed)
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		ni := dist.Classes[i].Count
		for j := i; j < k; j++ {
			prob := m.At(i, j)
			sp, end := rectangular, ni*dist.Classes[j].Count
			if i == j {
				sp, end = lowerTriangle, ni*(ni-1)/2
			}
			for x := int64(0); x < end; x++ {
				if src.Float64() < prob {
					edges = append(edges, decode(sp, x, offsets[i], offsets[j], dist.Classes[j].Count))
				}
			}
		}
	}
	return graph.NewEdgeList(edges, int(n)), nil
}
