package directed

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"
	"time"

	"nullgraph/internal/par"
)

// TestGoldenSerialSwapArcs pins the exact Workers=1 output of the
// directed chain (pair exchanges plus triangle reversals): FNV-64a over
// the arc keys, little-endian, in array order, so any change to the
// seed derivations, permutation, sweep order or acceptance logic fails
// here.
func TestGoldenSerialSwapArcs(t *testing.T) {
	al := cycleDigraph(2000)
	SwapArcs(al, SwapOptions{Iterations: 4, Workers: 1, Seed: 11})
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range al.Arcs {
		binary.LittleEndian.PutUint64(buf[:], a.Key())
		h.Write(buf[:])
	}
	const want = uint64(0x5a00c24cf97bc48d)
	if got := h.Sum64(); got != want {
		t.Fatalf("serial directed chain output hash = %#x, want %#x", got, want)
	}
}

func arcSignature(al *ArcList) string {
	keys := make([]uint64, len(al.Arcs))
	for i, a := range al.Arcs {
		keys[i] = a.Key()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return fmt.Sprint(keys)
}

// TestSwapArcsSimplicityAcrossSeedsAndWorkers: every seeded run, at any
// worker count, must leave the arc list simple (no loops, no duplicate
// arcs) with the joint degrees intact.
func TestSwapArcsSimplicityAcrossSeedsAndWorkers(t *testing.T) {
	d := jointOf(t,
		JointClass{Out: 2, In: 1, Count: 6},
		JointClass{Out: 1, In: 2, Count: 6},
	)
	start, err := KleitmanWang(d)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantIn := start.Degrees(1)
	for _, workers := range []int{1, 2, 4} {
		for seed := uint64(0); seed < 8; seed++ {
			al := start.Clone()
			SwapArcs(al, SwapOptions{Iterations: 12, Workers: workers, Seed: seed})
			if rep := al.CheckSimplicity(); !rep.IsSimple() {
				t.Fatalf("workers=%d seed=%d: not simple: %+v", workers, seed, rep)
			}
			out, in := al.Degrees(1)
			for v := range out {
				if out[v] != wantOut[v] || in[v] != wantIn[v] {
					t.Fatalf("workers=%d seed=%d: joint degrees changed at vertex %d", workers, seed, v)
				}
			}
		}
	}
}

// TestSwapArcsErgodicOnDerangements is the regression for the lazy
// pair coin. The 4-vertex out=in=1 space has 9 states (derangements of
// 4). Without the per-pair lazy coin the sweep applies every legal
// exchange of a pairing in lockstep, composite moves only, and the
// space decomposes into four communicating classes ({start, inverse}
// for each 4-cycle, involutions among themselves) — short seeded runs
// then visit at most a fraction of the states. With the coin the chain
// is ergodic and a modest sweep of seeds must reach all 9.
func TestSwapArcsErgodicOnDerangements(t *testing.T) {
	d := jointOf(t, JointClass{Out: 1, In: 1, Count: 4})
	start, err := KleitmanWang(d)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for seed := uint64(0); seed < 40; seed++ {
		al := start.Clone()
		SwapArcs(al, SwapOptions{Iterations: 30, Workers: 1, Seed: seed})
		if rep := al.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("seed %d: not simple: %+v", seed, rep)
		}
		seen[arcSignature(al)] = true
	}
	if len(seen) != 9 {
		t.Fatalf("reached %d of 9 derangement states from 40 seeds; chain is not mixing across communicating classes", len(seen))
	}
}

// TestSwapArcsLazyCoinStreamsIndependent: runs with different seeds
// must not all land on the same state (the coin streams and pairing
// permutations must actually depend on the seed).
func TestSwapArcsLazyCoinStreamsIndependent(t *testing.T) {
	d := jointOf(t, JointClass{Out: 1, In: 1, Count: 4})
	start, err := KleitmanWang(d)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]int{}
	for seed := uint64(100); seed < 110; seed++ {
		al := start.Clone()
		SwapArcs(al, SwapOptions{Iterations: 10, Workers: 1, Seed: seed})
		states[arcSignature(al)]++
	}
	if len(states) < 2 {
		t.Fatalf("10 distinct seeds produced %d distinct states", len(states))
	}
}

// TestUntrippedStopBitIdentical: the directed chain polls an attached
// stop flag inside every phase, and polling never consumes randomness,
// so a never-tripped Stop must leave the Workers=1 output bit-identical.
// The arc count spans several poll intervals of every phase.
func TestUntrippedStopBitIdentical(t *testing.T) {
	plain := cycleDigraph(30000)
	SwapArcs(plain, SwapOptions{Iterations: 3, Workers: 1, Seed: 7, TrackSwapped: true})
	polled := cycleDigraph(30000)
	SwapArcs(polled, SwapOptions{Iterations: 3, Workers: 1, Seed: 7, TrackSwapped: true, Stop: &par.Stop{}})
	for i := range plain.Arcs {
		if plain.Arcs[i] != polled.Arcs[i] {
			t.Fatalf("arc %d: %v with an untripped Stop, %v without", i, polled.Arcs[i], plain.Arcs[i])
		}
	}
}

// TestSwapEngineOwnsNoGoroutines: callers Step a SwapEngine without
// ever closing it, so a parallel engine must leave no goroutines behind.
// Per-call workers may still be exiting when Step returns, so the count
// gets a moment to settle; a parked pool never would.
func TestSwapEngineOwnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	al := cycleDigraph(4096)
	eng := NewSwapEngine(al, SwapOptions{Workers: 4, Seed: 3})
	for i := 0; i < 3; i++ {
		eng.Step()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before NewSwapEngine(...).Step(), %d after", before, after)
	}
}
