// Package permute implements random permutations of slices: a serial
// Fisher–Yates baseline and the inside-out shuffle the swap engines
// apply to the edge list before every iteration,
//
//	for i = 0..n-1: swap(A[i], A[H[i]])  with H[i] uniform in [i, n).
//
// The shuffle runs in two steps. The target array H is filled in
// parallel: worker w draws its contiguous chunk of H from a stream keyed
// by (seed, w), so H depends only on (seed, n, p). The apply is then one
// serial pass over H, at every width. Randomness enters only through H,
// and applying one H to several arrays (the swap engine's edges and
// their swapped flags) permutes them consistently.
//
// The paper applies H with the reservation algorithm of Shun, Gu,
// Blelloch, Fineman and Gibbons ("Sequential random permutation, list
// contraction and tree contraction are highly parallel", SODA 2015),
// which runs the same loop's dependence structure in rounds of
// priority writes and reproduces it bit for bit. On a 2-vCPU host those
// rounds cost about 70× the serial pass, so the apply here is the
// serial loop itself: the same targets, the same permutation, no rounds.
package permute

import (
	"nullgraph/internal/par"
	"nullgraph/internal/rng"
)

// FisherYates shuffles data uniformly at random using the provided
// source. This is the serial baseline of the permutation ablation.
func FisherYates[T any](r *rng.Source, data []T) {
	for i := len(data) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		data[i], data[j] = data[j], data[i]
	}
}

// FillTargetsStop fills h[begin:end) — worker w's chunk — with the
// deterministic inside-out swap targets for (seed, len(h)): h[i]
// uniform in [i, len(h)). The per-worker stream depends only on
// (seed, w), so any execution that splits [0, len(h)) into the same
// chunks produces the same array. The worker's source lives on the
// stack; the call does not allocate.
//
// A non-nil stop is polled every 8192 indices and ends the fill early
// once tripped; a nil stop never stops. What was written is a prefix
// of the full chunk's stream: polling never consumes randomness, so an
// untripped stop changes nothing.
//
//nullgraph:hotpath
func FillTargetsStop(h []int32, seed uint64, w, begin, end int, stop *par.Stop) {
	var src rng.Block
	src.Reseed(rng.Mix64(seed) ^ rng.Mix64(uint64(w)+0x51ed270b))
	n := len(h)
	//nullgraph:cancelable
	for i := begin; i < end; i++ {
		if stop != nil && (i-begin)&8191 == 0 && stop.Stopped() {
			return
		}
		h[i] = int32(i) + int32(src.Uint64n(uint64(n-i)))
	}
}

// TargetsInto fills h with the deterministic swap targets for
// (seed, len(h), p), one contiguous chunk per worker.
func TargetsInto(seed uint64, p int, h []int32) {
	par.ForRange(len(h), par.Workers(p), func(w int, r par.Range) {
		FillTargetsStop(h, seed, w, r.Begin, r.End, nil)
	})
}

// Targets returns the deterministic inside-out swap-target array for
// (seed, n, p).
func Targets(seed uint64, n, p int) []int32 {
	h := make([]int32, n)
	TargetsInto(seed, p, h)
	return h
}

// applyBlock is ApplyStop's stop-poll interval, in elements.
const applyBlock = 8192

// ApplyStop permutes data by the inside-out shuffle over the target
// array h (from Targets, TargetsInto or FillTargetsStop). It runs on the
// calling goroutine and does not allocate. A non-nil stop is polled once
// per 8192-element block, outside the per-element loop; a tripped stop
// ends the apply early and leaves data partially permuted — the same
// elements in a different order, never corrupted. A nil stop never
// stops, and an untripped one changes nothing.
//
//nullgraph:hotpath
func ApplyStop[T any](data []T, h []int32, stop *par.Stop) {
	if len(data) != len(h) {
		panic("permute: ApplyStop length mismatch")
	}
	// Reslicing data to len(h) lets the compiler drop data[i]'s bounds
	// check once h[i]'s has passed; the loop then costs what an
	// unblocked one does.
	data = data[:len(h)]
	//nullgraph:cancelable
	for lo := 0; lo < len(h) && !stop.Stopped(); lo += applyBlock {
		hi := min(lo+applyBlock, len(h))
		for i := lo; i < hi; i++ {
			j := h[i]
			data[i], data[j] = data[j], data[i]
		}
	}
}

// Scratch, NewScratch, Applier, NewApplier and Applier.Apply remain
// only because the benchmark module's permutation kernel
// (perfbench/kernels.go) calls them; delete them once that kernel calls
// ApplyStop (ROADMAP item 1).

// Scratch holds no state; see Applier.
type Scratch struct{}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Applier applies target arrays to slices of one element type.
type Applier[T any] struct{}

// NewApplier returns an Applier; its Scratch argument is unused.
func NewApplier[T any](*Scratch) *Applier[T] { return &Applier[T]{} }

// Apply is ApplyStop(data, h, nil): the permutation is the serial
// inside-out shuffle at every width, so p and pool are ignored.
func (*Applier[T]) Apply(data []T, h []int32, _ int, _ *par.Pool) {
	ApplyStop(data, h, nil)
}
