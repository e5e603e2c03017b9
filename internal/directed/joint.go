package directed

import (
	"fmt"
	"sort"

	"nullgraph/internal/par"
)

// JointClass is one ((out, in), count) class of a joint degree
// distribution — the directed analog of degseq.Class.
type JointClass struct {
	Out, In int64
	Count   int64
}

// JointDistribution lists unique (out, in) pairs with positive counts,
// sorted by (Out, In) ascending. Vertex IDs produced by the directed
// generators are class-ordered, exactly like the undirected layout.
type JointDistribution struct {
	Classes []JointClass
}

// Validate checks ordering and positivity.
func (d *JointDistribution) Validate() error {
	for i, c := range d.Classes {
		if c.Out < 0 || c.In < 0 {
			return fmt.Errorf("directed: class %d has negative degree (%d,%d)", i, c.Out, c.In)
		}
		if c.Count <= 0 {
			return fmt.Errorf("directed: class %d has non-positive count %d", i, c.Count)
		}
		if i > 0 {
			prev := d.Classes[i-1]
			if prev.Out > c.Out || (prev.Out == c.Out && prev.In >= c.In) {
				return fmt.Errorf("directed: classes not sorted/unique at %d", i)
			}
		}
	}
	return nil
}

// NumClasses returns the class count.
func (d *JointDistribution) NumClasses() int { return len(d.Classes) }

// NumVertices returns n.
func (d *JointDistribution) NumVertices() int64 {
	var n int64
	for _, c := range d.Classes {
		n += c.Count
	}
	return n
}

// OutStubs returns Σ out·count; InStubs the in-side total. A realizable
// digraph needs OutStubs == InStubs (= the arc count).
func (d *JointDistribution) OutStubs() int64 {
	var s int64
	for _, c := range d.Classes {
		s += c.Out * c.Count
	}
	return s
}

// InStubs returns Σ in·count.
func (d *JointDistribution) InStubs() int64 {
	var s int64
	for _, c := range d.Classes {
		s += c.In * c.Count
	}
	return s
}

// NumArcs returns the arc count of any realization (OutStubs).
func (d *JointDistribution) NumArcs() int64 { return d.OutStubs() }

// MaxOut and MaxIn return the extreme degrees.
func (d *JointDistribution) MaxOut() int64 {
	var m int64
	for _, c := range d.Classes {
		if c.Out > m {
			m = c.Out
		}
	}
	return m
}

// MaxIn returns the largest in-degree.
func (d *JointDistribution) MaxIn() int64 {
	var m int64
	for _, c := range d.Classes {
		if c.In > m {
			m = c.In
		}
	}
	return m
}

// FromJointDegrees builds the distribution of per-vertex (out, in)
// sequences. It panics if the slices differ in length.
func FromJointDegrees(out, in []int64) *JointDistribution {
	if len(out) != len(in) {
		panic("directed: out/in length mismatch")
	}
	type pair struct{ o, i int64 }
	counts := map[pair]int64{}
	for v := range out {
		counts[pair{out[v], in[v]}]++
	}
	classes := make([]JointClass, 0, len(counts))
	for p, n := range counts {
		classes = append(classes, JointClass{Out: p.o, In: p.i, Count: n})
	}
	sort.Slice(classes, func(a, b int) bool {
		if classes[a].Out != classes[b].Out {
			return classes[a].Out < classes[b].Out
		}
		return classes[a].In < classes[b].In
	})
	return &JointDistribution{Classes: classes}
}

// OfArcList extracts the joint distribution of an existing digraph.
func OfArcList(al *ArcList, p int) *JointDistribution {
	out, in := al.Degrees(p)
	return FromJointDegrees(out, in)
}

// Counts returns the class sizes in class order: the vertex layout the
// generators draw over.
func (d *JointDistribution) Counts() []int64 {
	counts := make([]int64, len(d.Classes))
	for i, c := range d.Classes {
		counts[i] = c.Count
	}
	return counts
}

// VertexOffsets returns the class-layout prefix sums (len |D|+1).
func (d *JointDistribution) VertexOffsets(p int) []int64 {
	return par.PrefixSums(d.Counts(), p)
}

// ClassOfVertex locates a vertex's class under the layout.
func ClassOfVertex(offsets []int64, v int64) int {
	k := sort.Search(len(offsets), func(i int) bool { return offsets[i] > v })
	return k - 1
}

// ToJointDegrees expands the distribution to per-vertex sequences in
// class order.
func (d *JointDistribution) ToJointDegrees() (out, in []int64) {
	n := d.NumVertices()
	out = make([]int64, 0, n)
	in = make([]int64, 0, n)
	for _, c := range d.Classes {
		for k := int64(0); k < c.Count; k++ {
			out = append(out, c.Out)
			in = append(in, c.In)
		}
	}
	return out, in
}

// IsRealizable reports whether the joint sequence is realizable as a
// simple digraph (no loops, no duplicate arcs), by the Fulkerson
// condition: with vertices sorted by out-degree descending (ties by
// in-degree descending),
//
//	Σ_{i≤k} out_i ≤ Σ_{i≤k} min(in_i, k−1) + Σ_{i>k} min(in_i, k)
//
// for every k, plus OutStubs == InStubs.
func (d *JointDistribution) IsRealizable() bool {
	if d.OutStubs() != d.InStubs() {
		return false
	}
	out, in := d.ToJointDegrees()
	n := len(out)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if out[idx[a]] != out[idx[b]] {
			return out[idx[a]] > out[idx[b]]
		}
		return in[idx[a]] > in[idx[b]]
	})
	// O(n²) evaluation; realizability checks run on distributions far
	// smaller than the graphs they realize, and KleitmanWang re-verifies
	// constructively at scale.
	for k := 1; k <= n; k++ {
		var left, right int64
		for pos, id := range idx {
			if pos < k {
				left += out[id]
				m := in[id]
				if m > int64(k-1) {
					m = int64(k - 1)
				}
				right += m
			} else {
				m := in[id]
				if m > int64(k) {
					m = int64(k)
				}
				right += m
			}
		}
		if left > right {
			return false
		}
	}
	return true
}
