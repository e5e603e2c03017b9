package permute

import "testing"

func TestApplyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ApplyStop with mismatched lengths did not panic")
		}
	}()
	ApplyStop([]int{1, 2, 3}, []int32{0}, nil)
}

func TestApplierLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	NewApplier[int](NewScratch()).Apply(make([]int, 3), make([]int32, 2), 1, nil)
}

func TestApplyTrivialSizes(t *testing.T) {
	// len 0 and 1 are no-ops regardless of target content.
	ApplyStop([]int{}, []int32{}, nil)
	one := []int{42}
	ApplyStop(one, []int32{0}, nil)
	if one[0] != 42 {
		t.Error("single-element apply changed data")
	}
}

func TestTargetsStableAcrossCalls(t *testing.T) {
	a := Targets(5, 1000, 2)
	b := Targets(5, 1000, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Targets not deterministic at %d", i)
		}
	}
}

func TestApplyConsistentAcrossArrays(t *testing.T) {
	// The use case the swap engine relies on: two arrays permuted with
	// the same targets stay aligned.
	const n = 20000
	vals := make([]int, n)
	tags := make([]uint8, n)
	for i := range vals {
		vals[i] = i
		tags[i] = uint8(i % 251)
	}
	h := Targets(9, n, 4)
	ApplyStop(vals, h, nil)
	ApplyStop(tags, h, nil)
	if !isPermutationOfIota(vals) {
		t.Fatal("not a permutation")
	}
	for i := range vals {
		if tags[i] != uint8(vals[i]%251) {
			t.Fatalf("arrays desynchronized at %d", i)
		}
	}
}
