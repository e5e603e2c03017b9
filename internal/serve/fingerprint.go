// Package serve implements nullgraphd's service layer: a pool of
// nullgraph.Engine sessions (sample counters per request fingerprint,
// idle engines per options shape, one global idle cap), an admission
// gate with bounded queueing, per-request deadlines, and a
// Prometheus-text metrics surface fed by the library's RunReport v2
// observability. cmd/nullgraphd is a thin flag-parsing wrapper around
// this package; cmd/loadgen drives it. DESIGN.md §13 documents the
// architecture.
package serve

import (
	"math"

	"nullgraph"
)

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset = uint64(14695981039346656037)
	fnv64Prime  = uint64(1099511628211)
)

// hash64 folds one 64-bit word into an FNV-1a state byte by byte.
func hash64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnv64Prime
		v >>= 8
	}
	return h
}

// fingerprintVersion is folded into every fingerprint first, so adding
// a field to the hashed option set (or changing field order) bumps it
// and retires every stale pool key at once instead of silently
// colliding with pre-change fingerprints. Version 2 added the sampling
// space; version 3 completed the StopPolicy coverage (Growth, Z,
// Hysteresis, SuccessRateTol, MinEverSwapped were previously unhashed,
// so two requests with different convergence tuning could share a
// pooled chain). Version 4 added the Connected flag (connected and
// unconstrained chains hold different state and must never pool
// together).
const fingerprintVersion = 4

// Fingerprint identifies a request's (distribution, options) pair.
// Requests with equal fingerprints are members of one sample batch:
// the pool issues their sample indices from one counter, so they draw
// distinct samples of the same seed. The hash covers the degree
// classes in order and every generation option, including the sampling
// space. Hashing the full class list keeps collisions across genuinely
// different distributions vanishingly rare (64-bit FNV-1a); a collision
// would only make two batches share one counter, skipping indices in
// each, never correctness.
//
// A nil dist hashes the options alone: the engine shape under which
// the pool parks idle engines. Engines of one shape are
// interchangeable whatever the distribution, because every request
// carries its own distribution to GenerateContext; engines of
// different shapes (another space, seed or stop policy, say) hold
// different chain state and never serve each other's requests.
//
// The fingerprintcomplete analyzer holds this function to its contract:
// every exported field of Options, converge.Policy, and the degree
// distribution must be folded in here or carry a
// //nullgraph:nofingerprint annotation at its declaration.
//
//nullgraph:fingerprint
func Fingerprint(dist *nullgraph.DegreeDistribution, opt nullgraph.Options) uint64 {
	h := fnv64Offset
	h = hash64(h, fingerprintVersion)
	h = hash64(h, uint64(opt.Space))
	var conn uint64
	if opt.Connected {
		conn = 1
	}
	h = hash64(h, conn)
	h = hash64(h, uint64(opt.Workers))
	h = hash64(h, opt.Seed)
	h = hash64(h, uint64(opt.SwapIterations))
	var mix uint64
	if opt.MixUntilSwapped {
		mix = 1
	}
	h = hash64(h, mix)
	h = hash64(h, uint64(opt.RefineProbabilities))
	if p := opt.StopPolicy; p != nil {
		h = hash64(h, 1)
		h = hash64(h, uint64(p.Statistic))
		h = hash64(h, uint64(p.Floor))
		h = hash64(h, uint64(p.Budget))
		h = hash64(h, math.Float64bits(p.Growth))
		h = hash64(h, math.Float64bits(p.Z))
		h = hash64(h, uint64(p.Hysteresis))
		h = hash64(h, math.Float64bits(p.SuccessRateTol))
		h = hash64(h, math.Float64bits(p.MinEverSwapped))
	} else {
		h = hash64(h, 0)
	}
	if dist == nil {
		return h
	}
	for _, c := range dist.Classes {
		h = hash64(h, uint64(c.Degree))
		h = hash64(h, uint64(c.Count))
	}
	return h
}
