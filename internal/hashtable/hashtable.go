// Package hashtable implements the concurrent open-addressing edge set
// from the paper (adapted from Slota et al. [33]): packed 64-bit edge
// keys, one atomic compare-and-swap per insertion in the common case,
// and linear or quadratic probing on collision.
//
// The CAS is needed only while several goroutines share the table. A
// lone writer (NewCountingWriters(1)) is its table's only writer until
// the next clear, and claims empty slots with a plain store instead. On
// amd64 a CAS is a locked instruction, which also holds back the next
// probe's load; a random insert into an 8 MiB table (m = 194k keys)
// measured 24–35 ns by uncontended CAS against 19–23 ns by plain store
// on a 2-vCPU Intel Xeon VM (BenchmarkWriterTestAndSet). Both paths
// share one probe loop and give the same membership answers, so a
// one-worker run is unchanged bit for bit.
//
// # Batch forms
//
// Writer.InsertKeys and Writer.TestAndSetPairs probe a whole batch of
// keys in one call; the swap engine's register and sweep phases insert
// through them. Through the per-key Writer.TestAndSet every insert pays
// a call into the out-of-line probe loop, and the core overlaps fewer
// slot loads; in the batch loop the loads of consecutive keys overlap.
// On the same VM and table, 8 alternating runs of
// BenchmarkWriterTestAndSet and BenchmarkWriterInsertKeys (512 keys a
// call) measured medians of 27.7 → 19.3 ns/key for a lone writer and
// 47.9 → 34.1 ns/key by CAS, on a host whose noise spread single runs
// from 17 to 67 ns. A batch makes exactly the probes of its scalar
// replay, in order, so answers, insert counts and slot contents match
// it; the per-key methods remain for callers that need a probe length
// or a verdict per key.
//
// The table supports only TestAndSet (insert-if-absent), Contains, and
// clearing — exactly the operations double-edge swapping needs. There is
// no deletion: the swap loop rebuilds/clears the table every iteration.
//
// # Insert accounting
//
// The table itself has no size counter: a shared atomic incremented by
// every insert is the one point of cross-worker contention the slot
// array's per-key CAS design otherwise avoids, so it was removed. Hot
// loops insert through per-worker Writer handles instead, which count
// their own inserts with no shared state; CheckLoad sums the p counters
// at a quiescent point and enforces the load contract deterministically.
//
// # Clearing
//
// The table is cleared with a full sweep (Clear/ClearRange): a parallel
// memset of the slot array — O(slots), but the stores stream
// sequentially at memory bandwidth (~0.5 ns/slot measured). A journaled
// clear that zeroes only the slots claimed since the last clear is
// O(inserted keys), but every store is a scattered cache miss (~18
// ns/slot measured), so it wins only below ~3% occupancy. The swap
// engine's register phase alone fills over 8% of its table (m keys in
// fewer than 12m slots), firmly in sweep territory, and nothing else
// clears a table per generation, so only the sweep is implemented.
//
// A second design — stamping every slot with an epoch so Clear is a
// single epoch bump — was rejected: with full-width 64-bit keys the slot
// value and its epoch cannot be updated by one CAS, and every published
// two-word protocol admits a race in which a leftover value from an
// earlier epoch equals the key being inserted, letting two concurrent
// TestAndSet calls both report "inserted" (or a reader observe a
// half-initialized slot). Packing an epoch into the key word would
// require narrowing the key (fingerprinting), which trades exactness for
// speed — unacceptable for an MCMC filter whose false positives bias the
// stationary distribution. See DESIGN.md §6.1 for the full analysis
// and the clear-strategy measurements.
package hashtable

import (
	"fmt"
	"sync/atomic"

	"nullgraph/internal/par"
	"nullgraph/internal/rng"
)

// Probing selects the collision-resolution sequence.
type Probing int

const (
	// Linear probing: slot, slot+1, slot+2, ...
	Linear Probing = iota
	// Quadratic probing: slot, slot+1, slot+3, slot+6, ... (triangular
	// increments, which visit every slot of a power-of-two table).
	Quadratic
)

// EdgeSet is a fixed-capacity concurrent set of uint64 keys. Safe for
// concurrent TestAndSet/Contains, and for concurrent inserts through the
// Writers of one NewCountingWriters(p > 1) set; a lone writer
// (NewCountingWriters(1)) must have the table to itself until the next
// clear (see Writer). The clear methods must not race with writers.
//
// Slot encoding: 0 = empty, otherwise key+1 (vertex IDs are int32, so
// key+1 never wraps).
//
// # Load contract
//
// New(capacity) sizes the table so that holding `capacity` keys keeps
// the load factor at or below 50% (slot count = next power of two
// >= 2*capacity). Inserting more than Capacity() distinct keys is a
// contract violation. Enforcement is two-tier:
//
//   - The plain TestAndSet path has no counter, so overload is detected
//     only when a probe sequence visits every slot without finding a
//     home, which may be long after the 50% line is crossed. This path
//     panics at that point rather than looping forever.
//   - The Writer path counts inserts per worker (uncontended), and
//     CheckLoad — called at the iteration's quiescent point — panics
//     deterministically as soon as the generation's total exceeds
//     Capacity().
type EdgeSet struct {
	slots   []uint64
	mask    uint64
	probing Probing
}

// New creates a set able to hold capacity keys at <= 50% load.
// The slot count is the next power of two >= 2*capacity.
func New(capacity int, probing Probing) *EdgeSet {
	if capacity < 1 {
		capacity = 1
	}
	n := uint64(1)
	for n < 2*uint64(capacity) {
		n <<= 1
	}
	return &EdgeSet{slots: make([]uint64, n), mask: n - 1, probing: probing}
}

// Capacity returns the maximum number of keys the set accepts under the
// load contract (half the slot count).
func (s *EdgeSet) Capacity() int { return len(s.slots) / 2 }

// NumSlots returns the slot-array length; ClearRange callers partition
// [0, NumSlots()).
func (s *EdgeSet) NumSlots() int { return len(s.slots) }

// Len returns the current number of stored keys by scanning the slot
// array — O(slots), intended for tests and diagnostics, not hot paths.
// (The shared size counter it once read was every worker's single point
// of contention and is gone.) Not safe to call concurrently with
// writers.
func (s *EdgeSet) Len() int {
	n := 0
	for _, v := range s.slots {
		if v != 0 {
			n++
		}
	}
	return n
}

// TestAndSet inserts key if absent. It returns true if the key was
// already present ("test" hit) and false if this call inserted it —
// matching the paper's TestAndSet return convention in Algorithm III.1.
//
// It panics if the probe sequence exhausts the table (see the load
// contract on EdgeSet). Hot loops that insert through a Writer get
// deterministic load checking as well.
//
//nullgraph:hotpath
func (s *EdgeSet) TestAndSet(key uint64) bool {
	present, _ := s.testAndSet(key, nil)
	return present
}

// testAndSet returns (present, probes): probes is the number of slots
// the probe sequence visited (>= 1), the §VIII ablation's probing-cost
// signal. A successful insert is charged to w when w is non-nil. The
// accounting lives here, not in the Writer methods, so that those stay
// thin enough to inline: one call per insert. The swap engine's plain
// path inserts through the batch forms (insertBatch) instead.
//
//nullgraph:hotpath
func (s *EdgeSet) testAndSet(key uint64, w *Writer) (bool, int) {
	stored := key + 1
	slot := rng.Mix64(key) & s.mask
	for step := uint64(1); ; step++ {
		cur := atomic.LoadUint64(&s.slots[slot])
		if cur == stored {
			return true, int(step)
		}
		if cur == 0 {
			// A lone writer owns the table until the next clear, so no
			// other goroutine can claim this slot: a plain store
			// suffices, and it does not stall the next load the way a
			// locked CAS does.
			if w != nil && w.single {
				s.slots[slot] = stored
				w.inserts++
				return false, int(step)
			}
			if atomic.CompareAndSwapUint64(&s.slots[slot], 0, stored) {
				if w != nil {
					w.inserts++
				}
				return false, int(step)
			}
			// Collision: another thread claimed this slot between the
			// load and the CAS. Re-examine the same slot — it may now
			// hold our key.
			cur = atomic.LoadUint64(&s.slots[slot])
			if cur == stored {
				return true, int(step)
			}
		}
		if step > uint64(len(s.slots)) {
			panic("hashtable: probe sequence exhausted (table over capacity)")
		}
		slot = s.next(slot, step)
	}
}

// Contains reports whether key is present, without inserting.
//
//nullgraph:hotpath
func (s *EdgeSet) Contains(key uint64) bool {
	stored := key + 1
	slot := rng.Mix64(key) & s.mask
	for step := uint64(1); ; step++ {
		cur := atomic.LoadUint64(&s.slots[slot])
		if cur == stored {
			return true
		}
		if cur == 0 {
			return false
		}
		if step > uint64(len(s.slots)) {
			return false
		}
		slot = s.next(slot, step)
	}
}

// next advances the probe sequence. step counts completed probes.
//
//nullgraph:hotpath
func (s *EdgeSet) next(slot, step uint64) uint64 {
	if s.probing == Quadratic {
		return (slot + step) & s.mask // triangular: cumulative +1,+2,+3...
	}
	return (slot + 1) & s.mask
}

// Clear empties the set with a full parallel sweep of the slot array.
// Not safe to run concurrently with TestAndSet/Contains.
func (s *EdgeSet) Clear(p int) {
	par.ForRange(len(s.slots), p, func(_ int, r par.Range) {
		clear(s.slots[r.Begin:r.End])
	})
}

// ClearRange zeros slots [begin, end) with plain stores. Callers with
// their own worker pools partition [0, NumSlots()) and sweep each chunk
// on its owner; like Clear, it must only run at quiescent points.
//
//nullgraph:hotpath
func (s *EdgeSet) ClearRange(begin, end int) {
	clear(s.slots[begin:end])
}

// String describes the table occupancy; used in debug logs. O(slots).
func (s *EdgeSet) String() string {
	return fmt.Sprintf("EdgeSet{slots=%d, size=%d}", len(s.slots), s.Len())
}

// Writer is a single-worker insertion handle providing per-worker
// (contention-free) insert accounting. A Writer must be used by one
// goroutine at a time; distinct Writers of one NewCountingWriters(p > 1)
// set may insert into the same EdgeSet concurrently.
//
// A lone writer — the only Writer of a NewCountingWriters(1) set — is
// its table's single writer: it claims empty slots with a plain store
// instead of a CAS. From its first insert until the next Clear or
// ClearWriters it must be the only goroutine that writes the table, and
// no goroutine may read the table concurrently with it. Membership
// answers and insert order are the same on both paths.
//
// The struct is padded so adjacent Writers in a slice don't share cache
// lines.
//
//nullgraph:padded
type Writer struct {
	set     *EdgeSet
	inserts int
	single  bool      // lone writer: insert with plain stores (see the type doc)
	_       [111]byte // pad the 17 data bytes to 128 so neighbouring Writers never share a cache line
}

// NewCountingWriters returns p insertion handles, each counting its own
// inserts, so the per-insert cost is one local counter increment. With
// p <= 1 the one handle is a lone writer and inserts without a CAS; its
// caller must keep the single-writer contract in the Writer doc. With
// p > 1 every handle claims slots by CAS and may run concurrently.
func (s *EdgeSet) NewCountingWriters(p int) []*Writer {
	if p < 1 {
		p = 1
	}
	ws := make([]*Writer, p)
	for i := range ws {
		ws[i] = &Writer{set: s, single: p == 1}
	}
	return ws
}

// TestAndSet is EdgeSet.TestAndSet through this writer's accounting: a
// successful insert bumps the per-writer count. No shared state is
// touched beyond the slot itself (a CAS, or a plain store for a lone
// writer).
//
//nullgraph:hotpath
func (w *Writer) TestAndSet(key uint64) bool {
	present, _ := w.set.testAndSet(key, w)
	return present
}

// TestAndSetProbed is TestAndSet additionally reporting how many slots
// the probe sequence visited (>= 1). Instrumented swap sweeps use it to
// feed probe-length histograms; the plain TestAndSet stays the
// uninstrumented hot path.
//
//nullgraph:hotpath
func (w *Writer) TestAndSetProbed(key uint64) (present bool, probes int) {
	return w.set.testAndSet(key, w)
}

// InsertKeys inserts every key of keys through this writer, in order:
// the batch form of calling TestAndSet on each and ignoring the answers.
// The swap engine registers an iteration's edges with it.
//
//nullgraph:hotpath
func (w *Writer) InsertKeys(keys []uint64) {
	w.set.insertBatch(keys, nil, w)
}

// TestAndSetPairs is the batch form of the swap sweep's admission test.
// keys holds n pairs (g, h) as keys[2t], keys[2t+1], and fresh has room
// for n answers. For each pair in order it inserts g, then — only if g
// was absent — inserts h, and sets fresh[t] to whether both were
// absent: exactly `!(TestAndSet(g) || TestAndSet(h))`, which leaves g
// registered when h is present. The answers, their order and the insert
// count are those of that scalar replay.
//
//nullgraph:hotpath
func (w *Writer) TestAndSetPairs(keys []uint64, fresh []bool) {
	if len(keys)&1 != 0 {
		panic("hashtable: TestAndSetPairs takes whole (g, h) key pairs")
	}
	// Slicing to one answer per pair also rejects a short (or nil) fresh.
	w.set.insertBatch(keys, fresh[:len(keys)/2], w)
}

// insertBatch is the probe loop of both batch forms, written out inline
// so that a batch pays one call instead of one per key and the core can
// overlap the slot loads of consecutive keys. With fresh nil it inserts
// every key; otherwise keys are (g, h) pairs, and a present g skips its
// h. Each key's probe is the one testAndSet makes: the same home slot,
// steps, store or CAS, and exhaustion panic.
//
//nullgraph:hotpath
func (s *EdgeSet) insertBatch(keys []uint64, fresh []bool, w *Writer) {
	slots := s.slots
	mask := s.mask
	limit := uint64(len(slots))
	quadratic := s.probing == Quadratic
	single := w.single
	inserts := w.inserts
	for i := 0; i < len(keys); i++ {
		stored := keys[i] + 1
		slot := rng.Mix64(keys[i]) & mask
		present := false
		for step := uint64(1); ; step++ {
			cur := atomic.LoadUint64(&slots[slot])
			if cur == stored {
				present = true
				break
			}
			if cur == 0 {
				if single {
					slots[slot] = stored
					inserts++
					break
				}
				if atomic.CompareAndSwapUint64(&slots[slot], 0, stored) {
					inserts++
					break
				}
				// Lost the race for this slot: it may now hold our key.
				if atomic.LoadUint64(&slots[slot]) == stored {
					present = true
					break
				}
			}
			if step > limit {
				w.inserts = inserts
				panic("hashtable: probe sequence exhausted (table over capacity)")
			}
			if quadratic {
				slot = (slot + step) & mask
			} else {
				slot = (slot + 1) & mask
			}
		}
		if fresh == nil {
			continue
		}
		if i&1 == 0 {
			if present {
				fresh[i>>1] = false
				i++ // g is present: h is not tested
			}
			continue
		}
		fresh[i>>1] = !present
	}
	w.inserts = inserts
}

// Inserts returns the number of keys this writer inserted since its
// last reset.
func (w *Writer) Inserts() int { return w.inserts }

// Reset zeroes the writer's insert count without touching the table —
// for use after a sweep (Clear/ClearRange).
func (w *Writer) Reset() { w.inserts = 0 }

// CheckLoad panics if the writers' counters record more inserts than
// the table's load contract allows. Called at a quiescent point (e.g.
// end of a swap iteration) it turns silent overload into a
// deterministic failure. The scan is O(p).
func (s *EdgeSet) CheckLoad(ws []*Writer) {
	total := 0
	for _, w := range ws {
		total += w.Inserts()
	}
	if total > s.Capacity() {
		panic(fmt.Sprintf("hashtable: %d inserts exceed capacity %d (load contract: <= 50%%)", total, s.Capacity()))
	}
}

// ClearWriters checks the load contract, empties the table with a full
// parallel sweep, and resets every writer.
func (s *EdgeSet) ClearWriters(ws []*Writer, p int) {
	s.CheckLoad(ws)
	s.Clear(p)
	for _, w := range ws {
		w.Reset()
	}
}
