package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"nullgraph"
)

// Every input is built here, by the benchmark's own generators, from
// the workload seed alone. The program under test only ever sees the
// finished inputs, so a change to its random streams cannot change what
// it is asked to do.

// newRand returns the benchmark's input stream for (seed, stream).
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5bd1e995^stream))
}

// powerLawCDF is the cumulative distribution of P(d) ∝ d^-gamma on
// [1, dmax].
func powerLawCDF(dmax int, gamma float64) []float64 {
	cdf := make([]float64, dmax)
	total := 0.0
	for d := 1; d <= dmax; d++ {
		total += math.Pow(float64(d), -gamma)
		cdf[d-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// powerLawDegrees draws n degrees from the power law in random vertex
// order, nudging the sum even so the sequence can be a graph's. The
// draws are stratified — vertex i's quantile falls in its own slice
// [i/n, (i+1)/n) — so every seed realizes the law closely and the work
// a sample costs barely depends on the seed.
func powerLawDegrees(r *rand.Rand, n, dmax int, gamma float64) []int64 {
	cdf := powerLawCDF(dmax, gamma)
	deg := make([]int64, n)
	var sum int64
	for i := range deg {
		q := (float64(i) + r.Float64()) / float64(n)
		deg[i] = int64(sort.SearchFloat64s(cdf, q) + 1)
		sum += deg[i]
	}
	if sum%2 == 1 {
		deg[0]++
	}
	r.Shuffle(n, func(i, j int) { deg[i], deg[j] = deg[j], deg[i] })
	return deg
}

// skewedDistribution is the gen-skewed and serve-churn input: a
// graphical power-law degree distribution.
func skewedDistribution(seed, stream uint64, n, dmax int, gamma float64) (*nullgraph.DegreeDistribution, error) {
	dist := nullgraph.DistributionFromDegrees(powerLawDegrees(newRand(seed, stream), n, dmax, gamma))
	if err := nullgraph.Validate(dist); err != nil {
		return nil, fmt.Errorf("power-law input (seed %d, stream %d): %w", seed, stream, err)
	}
	return dist, nil
}

// cumulative returns prefix sums of weights, for sampling an index in
// proportion to its weight.
func cumulative(w []int64) []float64 {
	c := make([]float64, len(w))
	total := 0.0
	for i, x := range w {
		total += float64(x)
		c[i] = total
	}
	return c
}

func drawIndex(r *rand.Rand, cum []float64) int32 {
	return int32(sort.SearchFloat64s(cum, r.Float64()*cum[len(cum)-1]))
}

// skewedDigraph is the directed-shuffle input: a simple digraph on n
// vertices with m arcs whose out- and in-degrees follow independent
// power laws (Chung-Lu style arc draws, loops and repeats rejected).
func skewedDigraph(seed uint64, n, m, dmax int, gamma float64) *nullgraph.Digraph {
	r := newRand(seed, 2)
	outCum := cumulative(powerLawDegrees(r, n, dmax, gamma))
	inCum := cumulative(powerLawDegrees(r, n, dmax, gamma))
	seen := make(map[uint64]struct{}, m)
	arcs := make([]nullgraph.Arc, 0, m)
	for attempts := 0; len(arcs) < m && attempts < 50*m; attempts++ {
		a := nullgraph.Arc{From: drawIndex(r, outCum), To: drawIndex(r, inCum)}
		if a.IsLoop() {
			continue
		}
		if _, dup := seen[a.Key()]; dup {
			continue
		}
		seen[a.Key()] = struct{}{}
		arcs = append(arcs, a)
	}
	return nullgraph.NewDigraph(arcs, n)
}

// sparseConnectedGraph is the connected-sparse input: a random
// recursive tree on n vertices plus uniformly random extra edges up to
// m, with labels and edge order shuffled.
func sparseConnectedGraph(seed uint64, n, m int) *nullgraph.Graph {
	r := newRand(seed, 3)
	label := r.Perm(n)
	seen := make(map[uint64]struct{}, m)
	edges := make([]nullgraph.Edge, 0, m)
	add := func(u, v int) bool {
		e := nullgraph.Edge{U: int32(label[u]), V: int32(label[v])}
		k := e.Canonical().Key()
		if u == v {
			return false
		}
		if _, dup := seen[k]; dup {
			return false
		}
		seen[k] = struct{}{}
		edges = append(edges, e)
		return true
	}
	for v := 1; v < n; v++ {
		add(v, r.IntN(v))
	}
	for len(edges) < m {
		add(r.IntN(n), r.IntN(n))
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return nullgraph.NewGraph(edges, n)
}

// serveRequest is one serve-churn request: a never-before-seen
// distribution and its wire body.
type serveRequest struct {
	dist *nullgraph.DegreeDistribution
	body []byte
}

// Sizes of each workload's inputs.
const (
	skewedN     = 100_000
	skewedDmax  = 2000
	skewedGamma = 2.1
	skewedSwaps = 10

	digraphArcs = 194_000

	sparseN     = 2048
	sparseM     = 4096
	sparseSwaps = 4

	serveN    = 20_000
	serveDmax = 1000
)

// newServeRequest builds request i of a serve-churn run. Each request
// draws from its own input stream, so every distribution (and with it
// every pool fingerprint) is new.
func newServeRequest(seed uint64, i int) (serveRequest, error) {
	dist, err := skewedDistribution(seed, 1000+uint64(i), serveN, serveDmax, skewedGamma)
	if err != nil {
		return serveRequest{}, err
	}
	var buf bytes.Buffer
	if err := nullgraph.WriteDistribution(&buf, dist); err != nil {
		return serveRequest{}, fmt.Errorf("encoding request %d: %w", i, err)
	}
	return serveRequest{dist: dist, body: buf.Bytes()}, nil
}
