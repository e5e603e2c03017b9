package hashtable

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nullgraph/internal/rng"
)

func TestTestAndSetBasic(t *testing.T) {
	for _, probing := range []Probing{Linear, Quadratic} {
		s := New(16, probing)
		if s.TestAndSet(42) {
			t.Error("fresh key reported present")
		}
		if !s.TestAndSet(42) {
			t.Error("inserted key reported absent")
		}
		if s.Len() != 1 {
			t.Errorf("Len = %d, want 1", s.Len())
		}
	}
}

func TestZeroKey(t *testing.T) {
	// Key 0 is the packed (0,0) edge; it must be storable despite the
	// empty-slot sentinel.
	s := New(4, Linear)
	if s.Contains(0) {
		t.Error("empty table contains key 0")
	}
	if s.TestAndSet(0) {
		t.Error("fresh key 0 reported present")
	}
	if !s.Contains(0) || !s.TestAndSet(0) {
		t.Error("key 0 lost after insertion")
	}
}

func TestContainsDoesNotInsert(t *testing.T) {
	s := New(8, Linear)
	if s.Contains(7) {
		t.Error("phantom key")
	}
	if s.Len() != 0 {
		t.Error("Contains inserted")
	}
}

func TestSetSemanticsMatchMap(t *testing.T) {
	for _, probing := range []Probing{Linear, Quadratic} {
		s := New(512, probing)
		ref := map[uint64]bool{}
		r := rng.New(99)
		for i := 0; i < 500; i++ {
			// Small key space forces repeats.
			key := r.Uint64n(200)
			wantPresent := ref[key]
			if got := s.TestAndSet(key); got != wantPresent {
				t.Fatalf("probing=%v: TestAndSet(%d) = %v, want %v", probing, key, got, wantPresent)
			}
			ref[key] = true
		}
		if s.Len() != len(ref) {
			t.Errorf("probing=%v: Len = %d, want %d", probing, s.Len(), len(ref))
		}
		for key := range ref {
			if !s.Contains(key) {
				t.Errorf("probing=%v: lost key %d", probing, key)
			}
		}
	}
}

func TestSetSemanticsProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		s := New(len(keys)+1, Quadratic)
		ref := map[uint64]bool{}
		for _, k16 := range keys {
			k := uint64(k16)
			if s.TestAndSet(k) != ref[k] {
				return false
			}
			ref[k] = true
		}
		return s.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentInsertExactlyOneWinner(t *testing.T) {
	// Many goroutines race to insert the same keys; for each key exactly
	// one TestAndSet must return false (the insert).
	for _, probing := range []Probing{Linear, Quadratic} {
		const keys = 2000
		const workers = 8
		s := New(keys, probing)
		inserts := make([]int64, keys)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rng.New(uint64(w))
				order := make([]int, keys)
				r.Perm(order)
				for _, k := range order {
					if !s.TestAndSet(uint64(k)) {
						atomic.AddInt64(&inserts[k], 1)
					}
				}
			}(w)
		}
		wg.Wait()
		for k, c := range inserts {
			if c != 1 {
				t.Fatalf("probing=%v: key %d inserted %d times, want exactly 1", probing, k, c)
			}
		}
		if s.Len() != keys {
			t.Errorf("probing=%v: Len = %d, want %d", probing, s.Len(), keys)
		}
	}
}

func TestConcurrentDisjointKeys(t *testing.T) {
	const perWorker = 5000
	const workers = 8
	s := New(perWorker*workers, Linear)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := uint64(w*perWorker + i)
				if s.TestAndSet(key) {
					t.Errorf("fresh disjoint key %d reported present", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != perWorker*workers {
		t.Errorf("Len = %d, want %d", s.Len(), perWorker*workers)
	}
}

func TestClear(t *testing.T) {
	s := New(100, Quadratic)
	for k := uint64(0); k < 100; k++ {
		s.TestAndSet(k)
	}
	s.Clear(4)
	if s.Len() != 0 {
		t.Errorf("Len after Clear = %d", s.Len())
	}
	for k := uint64(0); k < 100; k++ {
		if s.Contains(k) {
			t.Fatalf("key %d survived Clear", k)
		}
	}
	// Table is reusable after Clear.
	if s.TestAndSet(5) {
		t.Error("reinsert after Clear reported present")
	}
}

func TestCapacity(t *testing.T) {
	s := New(100, Linear)
	if s.Capacity() < 100 {
		t.Errorf("Capacity = %d, want >= 100", s.Capacity())
	}
	// Load stays sane right up to capacity.
	for k := 0; k < s.Capacity(); k++ {
		s.TestAndSet(uint64(k) * 1000003)
	}
	if s.Len() != s.Capacity() {
		t.Errorf("Len = %d, want %d", s.Len(), s.Capacity())
	}
}

func TestTinyCapacity(t *testing.T) {
	s := New(0, Linear) // clamps to 1
	if s.TestAndSet(9) {
		t.Error("fresh key present in tiny table")
	}
	if !s.Contains(9) {
		t.Error("tiny table lost its key")
	}
}

func TestAdversarialSameBucketKeys(t *testing.T) {
	// Dense sequential keys hash arbitrarily, but with a near-full table
	// every probe sequence gets exercised. Fill to max load and verify
	// membership for both probing strategies.
	for _, probing := range []Probing{Linear, Quadratic} {
		s := New(64, probing)
		n := s.Capacity()
		for k := 0; k < n; k++ {
			if s.TestAndSet(uint64(k)) {
				t.Fatalf("probing=%v: duplicate on fresh key %d", probing, k)
			}
		}
		for k := 0; k < n; k++ {
			if !s.Contains(uint64(k)) {
				t.Fatalf("probing=%v: key %d missing at full load", probing, k)
			}
		}
		for k := n; k < 2*n; k++ {
			if s.Contains(uint64(k)) {
				t.Fatalf("probing=%v: phantom key %d", probing, k)
			}
		}
	}
}

// writerPaths names a Writer's two insert paths: "single" is the lone
// writer of NewCountingWriters(1), which claims a slot with a plain
// store, and "shared" is writer 0 of NewCountingWriters(2), which claims
// it by CAS.
var writerPaths = []string{"single", "shared"}

// newWriters returns the writer set whose writer 0 takes path.
func newWriters(s *EdgeSet, path string) []*Writer {
	if path == "single" {
		return s.NewCountingWriters(1)
	}
	return s.NewCountingWriters(2)
}

func TestOverfullPanics(t *testing.T) {
	// New(1) has 2 slots and Capacity 1. Without a CheckLoad, overload
	// is detected only when a probe sequence exhausts the table:
	// inserts 2 and 3 violate the load contract, but only insert 3 —
	// with no empty slot left anywhere — can be detected and must panic
	// rather than probe forever. This holds for the writer-free table
	// path and for both writer paths.
	for _, probing := range []Probing{Linear, Quadratic} {
		for _, path := range append([]string{"table"}, writerPaths...) {
			s := New(1, probing)
			insert := s.TestAndSet
			if path != "table" {
				insert = newWriters(s, path)[0].TestAndSet
			}
			insert(10)
			insert(20) // past capacity; no counter is checked yet
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("probing=%v path=%s: insert into full table did not panic", probing, path)
					}
				}()
				insert(30)
			}()
		}
	}
}

func TestOnlyLoneWriterIsSingle(t *testing.T) {
	// The plain-store path is safe only for a table's one writer, so a
	// set of p > 1 writers must never take it.
	s := New(8, Linear)
	for _, p := range []int{0, 1} {
		if ws := s.NewCountingWriters(p); len(ws) != 1 || !ws[0].single {
			t.Errorf("NewCountingWriters(%d): want one single writer", p)
		}
	}
	for _, p := range []int{2, 3, 8} {
		for i, w := range s.NewCountingWriters(p) {
			if w.single {
				t.Errorf("NewCountingWriters(%d): writer %d is single", p, i)
			}
		}
	}
}

func TestWriterOverCapacityPanics(t *testing.T) {
	// The Writer path enforces the documented <= 50% load limit
	// deterministically at the quiescent check, long before the table
	// is physically full.
	for _, path := range writerPaths {
		s := New(4, Linear)
		ws := newWriters(s, path)
		for k := uint64(0); k <= uint64(s.Capacity()); k++ {
			ws[0].TestAndSet(k * 7919)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("path=%s: CheckLoad accepted more inserts than Capacity", path)
				}
			}()
			s.CheckLoad(ws)
		}()
	}
}

func TestWriterSemanticsMatchMap(t *testing.T) {
	for _, probing := range []Probing{Linear, Quadratic} {
		for _, path := range writerPaths {
			s := New(512, probing)
			w := newWriters(s, path)[0]
			ref := map[uint64]bool{}
			r := rng.New(41)
			for i := 0; i < 500; i++ {
				key := r.Uint64n(300)
				if got := w.TestAndSet(key); got != ref[key] {
					t.Fatalf("probing=%v path=%s: Writer.TestAndSet(%d) = %v, want %v", probing, path, key, got, ref[key])
				}
				ref[key] = true
			}
			if w.Inserts() != len(ref) {
				t.Errorf("probing=%v path=%s: Inserts = %d, want %d", probing, path, w.Inserts(), len(ref))
			}
			if s.Len() != len(ref) {
				t.Errorf("probing=%v path=%s: Len = %d, want %d", probing, path, s.Len(), len(ref))
			}
			for key := range ref {
				if !s.Contains(key) {
					t.Errorf("probing=%v path=%s: lost key %d", probing, path, key)
				}
			}
		}
	}
}

func TestWriterConcurrentStressAcrossGenerations(t *testing.T) {
	// -race stress: concurrent writers race on overlapping key sets,
	// then the table is swept and the next generation starts. For every
	// key of every generation exactly one writer may win the insert, and
	// the writers' counts must add up to the key count.
	const workers = 8
	const keys = 1500
	const generations = 6
	s := New(keys, Quadratic)
	ws := s.NewCountingWriters(workers)
	for gen := 0; gen < generations; gen++ {
		inserts := make([]int64, keys)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rng.New(uint64(gen*workers + w))
				order := make([]int, keys)
				r.Perm(order)
				for _, k := range order {
					if !ws[w].TestAndSet(uint64(k) * 2654435761) {
						atomic.AddInt64(&inserts[k], 1)
					}
				}
			}(w)
		}
		wg.Wait()
		for k, c := range inserts {
			if c != 1 {
				t.Fatalf("gen %d: key %d inserted %d times, want exactly 1", gen, k, c)
			}
		}
		counted := 0
		for _, w := range ws {
			counted += w.Inserts()
		}
		if counted != keys {
			t.Fatalf("gen %d: writers counted %d inserts, want %d", gen, counted, keys)
		}
		s.ClearWriters(ws, workers)
		if got := s.Len(); got != 0 {
			t.Fatalf("gen %d: Len after clear = %d", gen, got)
		}
	}
}

func TestCountingWritersSweepClear(t *testing.T) {
	// Counting writers: ClearWriters must sweep the table and reset
	// every writer's count.
	s := New(64, Linear)
	ws := s.NewCountingWriters(2)
	for k := uint64(0); k < 40; k++ {
		ws[int(k)%2].TestAndSet(k * 977)
	}
	if got := ws[0].Inserts() + ws[1].Inserts(); got != 40 {
		t.Fatalf("counted %d inserts, want 40", got)
	}
	s.ClearWriters(ws, 2)
	if s.Len() != 0 {
		t.Errorf("Len after sweep clear = %d", s.Len())
	}
	if ws[0].Inserts() != 0 || ws[1].Inserts() != 0 {
		t.Error("counters not reset by ClearWriters")
	}
}

func TestClearWritersDensePicksSweep(t *testing.T) {
	// A nearly full table (at the load contract's limit): ClearWriters
	// must still empty it and reset the writers.
	s := New(32, Quadratic)
	ws := s.NewCountingWriters(2)
	for k := uint64(0); k < 30; k++ { // ~47% of slots occupied
		ws[int(k)%2].TestAndSet(k * 7919)
	}
	s.ClearWriters(ws, 1)
	if s.Len() != 0 {
		t.Errorf("Len after dense clear = %d", s.Len())
	}
	for _, w := range ws {
		if w.Inserts() != 0 {
			t.Error("writer not reset after dense clear")
		}
	}
	if s.TestAndSet(7919) {
		t.Error("cleared key still present")
	}
}

func TestTestAndSetProbedMatchesPlain(t *testing.T) {
	// Probed and plain insertion must agree on set semantics; probe
	// counts must be >= 1, equal 1 on an uncontended first-probe hit,
	// and exceed 1 for a key whose home slot is occupied by another key.
	for _, probing := range []Probing{Linear, Quadratic} {
		for _, path := range writerPaths {
			s := New(64, probing)
			ws := newWriters(s, path)
			ref := New(64, probing)
			rws := newWriters(ref, path)
			for k := uint64(0); k < uint64(s.Capacity()); k++ {
				key := k * 0x9e3779b9
				present, probes := ws[0].TestAndSetProbed(key)
				if probes < 1 {
					t.Fatalf("probing=%v path=%s: probe count %d < 1", probing, path, probes)
				}
				if want := rws[0].TestAndSet(key); present != want {
					t.Fatalf("probing=%v path=%s: probed insert of %d = %v, plain = %v", probing, path, key, present, want)
				}
			}
			if ws[0].Inserts() != rws[0].Inserts() {
				t.Fatalf("probing=%v path=%s: probed writer counted %d inserts, plain %d",
					probing, path, ws[0].Inserts(), rws[0].Inserts())
			}
			// Re-testing a present key still reports its probe cost.
			present, probes := ws[0].TestAndSetProbed(0)
			if !present || probes < 1 {
				t.Errorf("probing=%v path=%s: re-test of present key = (%v, %d)", probing, path, present, probes)
			}
		}
	}
}

func TestTestAndSetProbedCollisionCost(t *testing.T) {
	// Force a collision: fill every slot but one, then insert a fresh
	// key — its probe sequence must visit more than one slot whenever
	// its home slot is taken.
	s := New(2, Linear) // 4 slots
	ws := s.NewCountingWriters(1)
	longest := 0
	for k := uint64(0); k < 2; k++ {
		_, probes := ws[0].TestAndSetProbed(k)
		if probes > longest {
			longest = probes
		}
	}
	// Two keys into four slots: at least possible, and the histogram
	// input is bounded by the table size.
	if longest > s.NumSlots() {
		t.Errorf("probe count %d exceeds slot count %d", longest, s.NumSlots())
	}
}

func TestStringDescribesOccupancy(t *testing.T) {
	s := New(4, Linear)
	s.TestAndSet(1)
	s.TestAndSet(2)
	got := s.String()
	if got == "" || s.Len() != 2 {
		t.Errorf("String() = %q, Len = %d", got, s.Len())
	}
}

func BenchmarkTestAndSetLinear(b *testing.B)    { benchInsert(b, Linear) }
func BenchmarkTestAndSetQuadratic(b *testing.B) { benchInsert(b, Quadratic) }

// BenchmarkClearFullSweep measures the full O(slots) sweep at
// swap-engine load (table sized for 2m inserts, m actually performed —
// the engine's steady state once most proposals are rejected). See
// DESIGN.md §6.1 for its comparison with a journaled clear, which lost
// ~8x at this occupancy.
func BenchmarkClearFullSweep(b *testing.B) {
	const m = 1 << 20
	s := New(2*m, Linear)
	keys := make([]uint64, m)
	r := rng.New(3)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, k := range keys {
			s.TestAndSet(k)
		}
		b.StartTimer()
		s.Clear(0)
	}
}

// BenchmarkWriterTestAndSet times random inserts at swap-engine load:
// m = 194k keys (gen-skewed's edge count) into a table sized for 2m,
// through a lone writer's plain store ("single") and through writer 0
// of a two-writer set, whose CAS is uncontended ("shared"). ns/key is
// the cost of one insert.
func BenchmarkWriterTestAndSet(b *testing.B) {
	const m = 194_000
	keys := make([]uint64, m)
	r := rng.New(5)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	for _, path := range writerPaths {
		b.Run(path, func(b *testing.B) {
			s := New(2*m, Linear)
			ws := newWriters(s, path)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.ClearWriters(ws, 1)
				b.StartTimer()
				for _, k := range keys {
					ws[0].TestAndSet(k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/key")
		})
	}
}

// BenchmarkWriterInsertKeys is BenchmarkWriterTestAndSet through the
// batch form the swap engine's register phase uses: the same keys and
// table, inserted 512 keys per InsertKeys call (the sweep's sub-block).
func BenchmarkWriterInsertKeys(b *testing.B) {
	const m = 194_000
	const batch = 512
	keys := make([]uint64, m)
	r := rng.New(5)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	for _, path := range writerPaths {
		b.Run(path, func(b *testing.B) {
			s := New(2*m, Linear)
			ws := newWriters(s, path)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.ClearWriters(ws, 1)
				b.StartTimer()
				for lo := 0; lo < m; lo += batch {
					ws[0].InsertKeys(keys[lo:min(lo+batch, m)])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/key")
		})
	}
}

func benchInsert(b *testing.B, probing Probing) {
	s := New(b.N+1, probing)
	r := rng.New(1)
	keys := make([]uint64, b.N)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TestAndSet(keys[i])
	}
}
