// Package probgen computes pairwise degree-class attachment
// probabilities for edge-skipping generation (Section IV-A of the
// paper): a heuristic O(|D|²)-work method based on preferential
// inter-class free-stub pairing whose output, fed to a Bernoulli
// edge-skipping generator, matches the target degree distribution in
// expectation. The naive Chung-Lu probabilities are also provided as
// the baseline the paper compares against.
package probgen

import "fmt"

// Matrix is a dense |D|×|D| matrix of pairwise class probabilities.
// P(i,j) is the probability that a *specific* vertex of class i and a
// *specific* vertex of class j are connected. Set keeps it symmetric,
// as the undirected model needs; SetOrdered writes one entry, so a
// directed model can hold P(i→j) != P(j→i).
type Matrix struct {
	k    int
	vals []float64
}

// NewMatrix allocates a zero k×k matrix.
func NewMatrix(k int) *Matrix {
	return &Matrix{k: k, vals: make([]float64, k*k)}
}

// Dim returns |D|.
func (m *Matrix) Dim() int { return m.k }

// At returns P(i,j).
func (m *Matrix) At(i, j int) float64 { return m.vals[i*m.k+j] }

// Set assigns P(i,j) and P(j,i) simultaneously, preserving symmetry.
func (m *Matrix) Set(i, j int, v float64) {
	m.vals[i*m.k+j] = v
	m.vals[j*m.k+i] = v
}

// SetOrdered assigns P(i,j) alone: the probability of an arc from a
// class-i vertex to a class-j vertex in a directed model.
func (m *Matrix) SetOrdered(i, j int, v float64) { m.vals[i*m.k+j] = v }

// Add accumulates into P(i,j) only (used while the two asymmetric
// halves p_ij and p_ji are being built; call Symmetrize after).
func (m *Matrix) add(i, j int, v float64) { m.vals[i*m.k+j] += v }

// Symmetrize replaces P with P_ij = p_ij + p_ji, the paper's final
// combination of the two per-ordering contributions.
func (m *Matrix) symmetrize() {
	for i := 0; i < m.k; i++ {
		for j := i + 1; j < m.k; j++ {
			s := m.vals[i*m.k+j] + m.vals[j*m.k+i]
			m.vals[i*m.k+j] = s
			m.vals[j*m.k+i] = s
		}
	}
}

// Clamp bounds every entry to [0, 1].
func (m *Matrix) Clamp() {
	for i, v := range m.vals {
		if v < 0 {
			m.vals[i] = 0
		} else if v > 1 {
			m.vals[i] = 1
		}
	}
}

// L1Distance returns Σ|a_ij − b_ij| over all entries. It panics on
// dimension mismatch. This is the error measure of the paper's Figure 4.
func L1Distance(a, b *Matrix) float64 {
	if a.k != b.k {
		panic(fmt.Sprintf("probgen: L1Distance dims %d vs %d", a.k, b.k))
	}
	var sum float64
	for i := range a.vals {
		d := a.vals[i] - b.vals[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.k)
	copy(c.vals, m.vals)
	return c
}

// WeightedL1Distance returns Σ pairs(i,j)·|a_ij − b_ij| over unordered
// class pairs, where pairs(i,j) is the number of vertex pairs the cell
// governs (n_i·n_j off-diagonal, C(n_i,2) diagonal): the distance
// between the *expected edge placements* of two probability matrices,
// in edges. Compared to the raw entry-wise L1 it weights cells by how
// much graph they control, which suppresses the sampling noise of
// near-empty singleton-class cells when the matrices are empirical.
func WeightedL1Distance(counts []int64, a, b *Matrix) float64 {
	if a.k != b.k || len(counts) != a.k {
		panic("probgen: WeightedL1Distance dimension mismatch")
	}
	var sum float64
	for i := 0; i < a.k; i++ {
		ni := float64(counts[i])
		for j := i; j < a.k; j++ {
			var pairs float64
			if i == j {
				pairs = ni * (ni - 1) / 2
			} else {
				pairs = ni * float64(counts[j])
			}
			d := a.At(i, j) - b.At(i, j)
			if d < 0 {
				d = -d
			}
			sum += pairs * d
		}
	}
	return sum
}
