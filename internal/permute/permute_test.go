package permute

import (
	"math"
	"testing"
	"testing/quick"

	"nullgraph/internal/rng"
)

func isPermutationOfIota(data []int) bool {
	seen := make([]bool, len(data))
	for _, v := range data {
		if v < 0 || v >= len(data) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func iota(n int) []int {
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	return data
}

func TestFisherYatesIsPermutation(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{0, 1, 2, 17, 1000} {
		data := iota(n)
		FisherYates(r, data)
		if !isPermutationOfIota(data) {
			t.Errorf("n=%d: not a permutation: %v", n, data)
		}
	}
}

// shuffle is the permutation the swap engine applies for
// (seed, len(data), p): targets drawn at width p, then the serial apply.
func shuffle(seed uint64, data []int, p int) {
	ApplyStop(data, Targets(seed, len(data), p), nil)
}

// insideOut is the reference definition of the apply.
func insideOut[T any](data []T, h []int32) {
	for i := range data {
		j := h[i]
		data[i], data[j] = data[j], data[i]
	}
}

func TestParallelIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, applyBlock - 1, applyBlock, applyBlock + 1, 50000} {
		for _, p := range []int{1, 2, 4, 8} {
			data := iota(n)
			shuffle(123, data, p)
			if !isPermutationOfIota(data) {
				t.Fatalf("n=%d p=%d: not a permutation", n, p)
			}
			want := iota(n)
			insideOut(want, Targets(123, n, p))
			for i := range want {
				if data[i] != want[i] {
					t.Fatalf("n=%d p=%d: ApplyStop diverges from the inside-out loop at %d", n, p, i)
				}
			}
		}
	}
}

func TestParallelDeterministicForFixedSeedAndWorkers(t *testing.T) {
	const n = 30000
	a, b := iota(n), iota(n)
	shuffle(9, a, 4)
	shuffle(9, b, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed,p) diverged at %d", i)
		}
	}
	c := iota(n)
	shuffle(10, c, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical permutations")
	}
}

func TestTargetsInRange(t *testing.T) {
	const n = 10000
	h := Targets(3, n, 8)
	for i, target := range h {
		if int(target) < i || int(target) >= n {
			t.Fatalf("h[%d] = %d out of [%d, %d)", i, target, i, n)
		}
	}
}

// TestTargetsIntoMatchesTargets locks the buffer-reusing entry point to
// the allocating one, including when the buffer is dirty from a
// previous, larger fill.
func TestTargetsIntoMatchesTargets(t *testing.T) {
	buf := make([]int32, 20000)
	for i := range buf {
		buf[i] = -7 // poison
	}
	for _, n := range []int{20000, 5000, 1} { // shrink between calls
		for _, p := range []int{1, 4} {
			want := Targets(99, n, p)
			got := buf[:n]
			TargetsInto(99, p, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: TargetsInto[%d] = %d, Targets %d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParallelUniformitySmall(t *testing.T) {
	// All 6 permutations of 3 elements should appear near-uniformly,
	// with the targets drawn at width 2.
	const trials = 60000
	counts := map[[3]int]int{}
	for trial := 0; trial < trials; trial++ {
		data := iota(3)
		shuffle(uint64(trial), data, 2)
		counts[[3]int{data[0], data[1], data[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	want := float64(trials) / 6
	for perm, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("permutation %v seen %d times, want ~%v", perm, c, want)
		}
	}
}

func TestParallelUniformityLarge(t *testing.T) {
	// Position distribution check with targets drawn at width 4 over
	// several apply blocks: element 0 should land in each quarter of a
	// large array about equally often.
	const n = applyBlock * 2
	const trials = 400
	quarters := [4]int{}
	for trial := 0; trial < trials; trial++ {
		data := iota(n)
		shuffle(uint64(trial)+500, data, 4)
		for pos, v := range data {
			if v == 0 {
				quarters[pos*4/n]++
				break
			}
		}
	}
	for q, c := range quarters {
		want := float64(trials) / 4
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("element 0 in quarter %d: %d of %d trials", q, c, trials)
		}
	}
}

func TestFisherYatesProperty(t *testing.T) {
	r := rng.New(11)
	f := func(n uint8) bool {
		data := iota(int(n))
		FisherYates(r, data)
		return isPermutationOfIota(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkFisherYates(b *testing.B) {
	const n = 1 << 20
	data := iota(n)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FisherYates(r, data)
	}
	b.SetBytes(n * 8)
}

func BenchmarkApplyStop(b *testing.B) {
	const n = 1 << 20
	data := iota(n)
	h := Targets(1, n, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyStop(data, h, nil)
	}
	b.SetBytes(n * 8)
}
