package permute

import (
	"testing"

	"nullgraph/internal/par"
)

// TestFillTargetsStopPreTripped: a tripped flag stops target generation
// before the first write.
func TestFillTargetsStopPreTripped(t *testing.T) {
	h := make([]int32, 4096)
	for i := range h {
		h[i] = -1
	}
	stop := &par.Stop{}
	stop.Set()
	FillTargetsStop(h, 11, 0, 0, len(h), stop)
	for i, v := range h {
		if v != -1 {
			t.Fatalf("pre-tripped FillTargetsStop wrote h[%d] = %d", i, v)
		}
	}
}

// TestFillTargetsStopUntrippedBitIdentical: an untripped stop must
// produce exactly the nil-stop stream — polling consumes no
// randomness.
func TestFillTargetsStopUntrippedBitIdentical(t *testing.T) {
	const n = 100_000
	plain := make([]int32, n)
	FillTargetsStop(plain, 11, 0, 0, n, nil)
	watched := make([]int32, n)
	FillTargetsStop(watched, 11, 0, 0, n, &par.Stop{})
	for i := range plain {
		if plain[i] != watched[i] {
			t.Fatalf("stop polling changed the target stream at %d", i)
		}
	}
}

// TestApplierStopUntrippedBitIdentical: an apply polling a
// never-tripped stop must permute exactly like one with a nil stop.
func TestApplierStopUntrippedBitIdentical(t *testing.T) {
	const n = 50_000
	h := Targets(7, n, 2)
	plain := make([]int64, n)
	watched := make([]int64, n)
	for i := range plain {
		plain[i] = int64(i)
		watched[i] = int64(i)
	}

	ApplyStop(plain, h, nil)
	ApplyStop(watched, h, &par.Stop{})
	for i := range plain {
		if plain[i] != watched[i] {
			t.Fatalf("stop polling changed the permutation at %d", i)
		}
	}
}

// TestApplierStopPreTrippedPreservesMultiset: an abandoned apply may
// leave the data partially permuted but never corrupted — same
// multiset — and a later apply of the same targets is exact again.
func TestApplierStopPreTrippedPreservesMultiset(t *testing.T) {
	const n = 20_000
	h := Targets(3, n, 2)
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}

	stop := &par.Stop{}
	stop.Set()
	ApplyStop(data, h, stop)

	seen := make(map[int64]int, n)
	for _, v := range data {
		seen[v]++
	}
	for i := int64(0); i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("value %d appears %d times after abandoned apply", i, seen[i])
		}
	}

	// Reuse after abort: without the stop the apply must give the
	// reference permutation again.
	for i := range data {
		data[i] = int64(i)
	}
	ApplyStop(data, h, nil)
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i)
	}
	insideOut(want, h)
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("apply after an abandoned one diverges from the reference at %d", i)
		}
	}
}
