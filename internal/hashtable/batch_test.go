package hashtable

import (
	"fmt"
	"sync"
	"testing"

	"nullgraph/internal/rng"
)

// batchOp is one batch call: TestAndSetPairs(keys, ...) when pairs is
// set, InsertKeys(keys) otherwise.
type batchOp struct {
	pairs bool
	keys  []uint64
}

// replayBatches applies ops through writer 0 of a table on path and, in
// step, the scalar TestAndSet calls each batch stands for through writer
// 0 of a twin table. It returns the first disagreement in pair verdicts,
// insert counts, Len or slot contents, or "" when the batch forms match
// their scalar replay exactly.
func replayBatches(probing Probing, path string, capacity int, ops []batchOp) string {
	s, ref := New(capacity, probing), New(capacity, probing)
	w, rw := newWriters(s, path)[0], newWriters(ref, path)[0]
	for n, op := range ops {
		if op.pairs {
			fresh := make([]bool, len(op.keys)/2)
			for t := range fresh {
				fresh[t] = t%2 == 0 // every verdict must be written
			}
			w.TestAndSetPairs(op.keys, fresh)
			for t, got := range fresh {
				g, h := op.keys[2*t], op.keys[2*t+1]
				if want := !(rw.TestAndSet(g) || rw.TestAndSet(h)); got != want {
					return fmt.Sprintf("op %d pair %d (%d, %d): fresh = %v, scalar replay says %v", n, t, g, h, got, want)
				}
			}
		} else {
			w.InsertKeys(op.keys)
			for _, k := range op.keys {
				rw.TestAndSet(k)
			}
		}
		if w.Inserts() != rw.Inserts() {
			return fmt.Sprintf("op %d: writer counted %d inserts, scalar replay %d", n, w.Inserts(), rw.Inserts())
		}
	}
	if s.Len() != ref.Len() {
		return fmt.Sprintf("Len = %d, scalar replay %d", s.Len(), ref.Len())
	}
	for i := range s.slots {
		if s.slots[i] != ref.slots[i] {
			return fmt.Sprintf("slot %d holds %d, scalar replay %d", i, s.slots[i], ref.slots[i])
		}
	}
	return ""
}

func TestBatchFormsMatchScalarReplay(t *testing.T) {
	// A key space no larger than the capacity keeps every trial within
	// the load contract while forcing duplicates inside a batch, inside
	// a pair, and across batches and forms.
	const keySpace = 48
	for _, probing := range []Probing{Linear, Quadratic} {
		for _, path := range writerPaths {
			r := rng.New(17)
			for trial := 0; trial < 100; trial++ {
				ops := make([]batchOp, 1+r.Uint64n(8))
				for n := range ops {
					op := batchOp{pairs: r.Bool(), keys: make([]uint64, r.Uint64n(25))}
					if op.pairs {
						op.keys = op.keys[:len(op.keys)&^1]
					}
					for i := range op.keys {
						op.keys[i] = r.Uint64n(keySpace)
					}
					ops[n] = op
				}
				if msg := replayBatches(probing, path, keySpace, ops); msg != "" {
					t.Fatalf("probing=%v path=%s trial %d: %s", probing, path, trial, msg)
				}
			}
		}
	}
}

func TestTestAndSetPairsPresentKeyStopsPair(t *testing.T) {
	// A present g rejects its pair without inserting h; a present h
	// rejects it after g was inserted, and g stays registered — exactly
	// `TestAndSet(g) || TestAndSet(h)`.
	for _, probing := range []Probing{Linear, Quadratic} {
		for _, path := range writerPaths {
			s := New(16, probing)
			w := newWriters(s, path)[0]
			w.TestAndSet(10)
			fresh := []bool{true, true}
			w.TestAndSetPairs([]uint64{10, 11, 12, 10}, fresh)
			if fresh[0] || fresh[1] {
				t.Errorf("probing=%v path=%s: fresh = %v, want both rejected", probing, path, fresh)
			}
			if s.Contains(11) {
				t.Errorf("probing=%v path=%s: partner of a present key was inserted", probing, path)
			}
			if !s.Contains(12) {
				t.Errorf("probing=%v path=%s: g of a pair with a present h is not registered", probing, path)
			}
			if w.Inserts() != 2 {
				t.Errorf("probing=%v path=%s: Inserts = %d, want 2", probing, path, w.Inserts())
			}
		}
	}
}

func TestBatchOverfullPanics(t *testing.T) {
	// The batch forms' probe loop must detect an exhausted table like
	// the scalar one (TestOverfullPanics), and leave the writer's count
	// at the inserts that happened before the panic.
	forms := map[string]func(w *Writer, keys []uint64){
		"InsertKeys":      (*Writer).InsertKeys,
		"TestAndSetPairs": func(w *Writer, keys []uint64) { w.TestAndSetPairs(keys, make([]bool, len(keys)/2)) },
	}
	for name, insert := range forms {
		for _, probing := range []Probing{Linear, Quadratic} {
			for _, path := range writerPaths {
				s := New(1, probing) // 2 slots
				w := newWriters(s, path)[0]
				insert(w, []uint64{10, 20}) // past capacity; no counter is checked yet
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s probing=%v path=%s: insert into full table did not panic", name, probing, path)
						}
					}()
					insert(w, []uint64{30, 40})
				}()
				if w.Inserts() != 2 {
					t.Errorf("%s probing=%v path=%s: Inserts = %d after the panic, want 2", name, probing, path, w.Inserts())
				}
			}
		}
	}
}

func TestTestAndSetPairsRejectsOddKeys(t *testing.T) {
	s := New(8, Linear)
	w := s.NewCountingWriters(1)[0]
	for name, call := range map[string]func(){
		"odd keys":    func() { w.TestAndSetPairs([]uint64{1, 2, 3}, make([]bool, 2)) },
		"short fresh": func() { w.TestAndSetPairs([]uint64{1, 2, 3, 4}, make([]bool, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	if s.Len() != 0 {
		t.Errorf("a rejected call inserted %d keys", s.Len())
	}
}

func TestBatchConcurrentExactlyOneWinner(t *testing.T) {
	// Shared writers insert the same pairs in the same order, so they
	// often race for one empty slot with one key; the loser of a CAS
	// must re-examine the slot rather than store the key a second time
	// further along. Per generation every pair must be admitted by
	// exactly one writer, and each key stored once.
	const workers = 4
	const pairs = 2048
	generations := 40
	if testing.Short() {
		generations = 8
	}
	for _, probing := range []Probing{Linear, Quadratic} {
		s := New(2*pairs, probing)
		ws := s.NewCountingWriters(workers)
		keys := make([]uint64, 2*pairs)
		for gen := 0; gen < generations; gen++ {
			for i := range keys {
				keys[i] = uint64(gen)<<32 | uint64(i)
			}
			admitted := make([][]bool, workers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := range ws {
				admitted[w] = make([]bool, pairs)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for lo := 0; lo < len(keys); lo += 64 {
						ws[w].TestAndSetPairs(keys[lo:lo+64], admitted[w][lo/2:])
					}
				}(w)
			}
			close(start)
			wg.Wait()
			for p := 0; p < pairs; p++ {
				winners := 0
				for w := range ws {
					if admitted[w][p] {
						winners++
					}
				}
				if winners != 1 {
					t.Fatalf("probing=%v gen %d: pair %d admitted by %d writers, want 1", probing, gen, p, winners)
				}
			}
			counted := 0
			for _, w := range ws {
				counted += w.Inserts()
			}
			if got := s.Len(); got != len(keys) || counted != len(keys) {
				t.Fatalf("probing=%v gen %d: Len = %d, writers counted %d, want %d", probing, gen, got, counted, len(keys))
			}
			s.ClearWriters(ws, 1)
		}
	}
}

// FuzzTestAndSetPairs checks the batch forms against their scalar
// replay (replayBatches) on fuzzed batch sequences. data[0] picks the
// probing and the writer path; then each batch is a header byte (bit 0:
// pairs, the rest: key count mod 32) followed by one byte per key, so
// the key space (256) never exceeds the table's capacity.
func FuzzTestAndSetPairs(f *testing.F) {
	f.Add([]byte{0, 9, 1, 2, 3, 4})
	f.Add([]byte{1, 8, 7, 7, 7, 7, 9, 5, 5, 6, 6})
	f.Add([]byte{3, 16, 0, 0, 0, 1, 1, 0, 1, 1, 13, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 63, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, 242, 241, 240})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		probing := Probing(data[0] & 1)
		path := writerPaths[data[0]>>1&1]
		data = data[1:]
		var ops []batchOp
		for len(data) > 0 {
			head := data[0]
			n := min(int(head>>1)%32, len(data)-1)
			op := batchOp{pairs: head&1 == 1, keys: make([]uint64, n)}
			for i := range op.keys {
				op.keys[i] = uint64(data[1+i])
			}
			if op.pairs {
				op.keys = op.keys[:n&^1]
			}
			ops = append(ops, op)
			data = data[1+n:]
		}
		if msg := replayBatches(probing, path, 256, ops); msg != "" {
			t.Fatal(msg)
		}
	})
}
