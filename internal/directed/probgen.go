package directed

import (
	"sort"

	"nullgraph/internal/par"
	"nullgraph/internal/probgen"
)

// GenerateProbabilities is the directed version of the paper's Section
// IV-A heuristic, as an asymmetric probgen.Matrix: P(i, j) is the
// probability of an arc from a specific class-i vertex to a specific
// class-j vertex. Out-stubs attach to in-stubs: visiting source classes
// in descending out-degree order, class i sends to every class j
//
//	e_ij = min( FEout(i)·FEin(j)/ΣFEin,  pairs(i,j)·headroom,  FEin(j) )
//
// arcs, where pairs(i,j) = n_i·n_j ordered pairs (n_i·(n_i−1) on the
// diagonal — self-arcs are excluded), headroom is the remaining
// probability mass before P reaches 1, and the row is scaled so class i
// never spends more than FEout(i). Refinement sweeps redistribute
// leftovers. Because each ordered class pair is visited exactly once
// (by its source class), there is no halving/doubling bookkeeping: the
// full estimate converts directly via P(i→j) += e_ij / pairs(i,j).
//
// The target system (directed analog of Section IV-A's):
//
//	out_i = Σ_j n_j·P(i,j) − P(i,i)     for every class i
//	in_i  = Σ_j n_j·P(j,i) − P(i,i)
func GenerateProbabilities(d *JointDistribution, p int) *probgen.Matrix {
	k := d.NumClasses()
	m := probgen.NewMatrix(k)
	if k == 0 {
		return m
	}
	feOut := make([]float64, k)
	feIn := make([]float64, k)
	var totalIn float64
	for c, cl := range d.Classes {
		feOut[c] = float64(cl.Out) * float64(cl.Count)
		feIn[c] = float64(cl.In) * float64(cl.Count)
		totalIn += feIn[c]
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return d.Classes[order[a]].Out > d.Classes[order[b]].Out
	})

	initialIn := totalIn
	const maxSweeps = 5
	for sweep := 0; sweep < maxSweeps && totalIn > 1e-9*initialIn+1e-9; sweep++ {
		before := totalIn
		totalIn = attachSweepDirected(d, m, feOut, feIn, order, totalIn, p)
		if totalIn >= before-1e-9 {
			break
		}
	}
	m.Clamp()
	return m
}

func attachSweepDirected(d *JointDistribution, m *probgen.Matrix, feOut, feIn []float64, order []int, totalIn float64, p int) float64 {
	k := d.NumClasses()
	eRow := make([]float64, k)
	for _, i := range order {
		if feOut[i] <= 0 || totalIn <= 0 {
			continue
		}
		fo := feOut[i]
		par.For(k, p, func(j int) {
			eRow[j] = 0
			if feIn[j] <= 0 {
				return
			}
			pairs := d.orderedPairs(i, j)
			if pairs <= 0 {
				return
			}
			naive := fo * feIn[j] / totalIn
			capacity := pairs * (1 - m.At(i, j))
			e := naive
			if capacity < e {
				e = capacity
			}
			if feIn[j] < e {
				e = feIn[j]
			}
			if e <= 0 {
				return
			}
			eRow[j] = e
		})
		var rowSpend float64
		for j := 0; j < k; j++ {
			rowSpend += eRow[j]
		}
		scale := 1.0
		if rowSpend > fo && rowSpend > 0 {
			scale = fo / rowSpend
		}
		var consumed float64
		for j := 0; j < k; j++ {
			e := eRow[j] * scale
			if e == 0 {
				continue
			}
			m.SetOrdered(i, j, m.At(i, j)+e/d.orderedPairs(i, j))
			feIn[j] -= e
			if feIn[j] < 0 {
				feIn[j] = 0
			}
			consumed += e
		}
		feOut[i] -= consumed
		if feOut[i] < 0 {
			feOut[i] = 0
		}
		totalIn = 0
		for _, v := range feIn {
			totalIn += v
		}
	}
	return totalIn
}

// RowResiduals returns per-class (outResid, inResid): the expected
// degree errors of the matrix under Bernoulli arc generation.
func RowResiduals(d *JointDistribution, m *probgen.Matrix) (outResid, inResid []float64) {
	k := d.NumClasses()
	outResid = make([]float64, k)
	inResid = make([]float64, k)
	for i := 0; i < k; i++ {
		var sumOut, sumIn float64
		for j := 0; j < k; j++ {
			sumOut += float64(d.Classes[j].Count) * m.At(i, j)
			sumIn += float64(d.Classes[j].Count) * m.At(j, i)
		}
		sumOut -= m.At(i, i)
		sumIn -= m.At(i, i)
		outResid[i] = sumOut - float64(d.Classes[i].Out)
		inResid[i] = sumIn - float64(d.Classes[i].In)
	}
	return outResid, inResid
}

// ExpectedArcs returns the Bernoulli process's expected arc count.
func ExpectedArcs(d *JointDistribution, m *probgen.Matrix) float64 {
	k := d.NumClasses()
	var sum float64
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			sum += d.orderedPairs(i, j) * m.At(i, j)
		}
	}
	return sum
}

// orderedPairs is the size of the ordered class pair (i, j)'s sample
// space: n_i·n_j vertex pairs, or n_i·(n_i−1) on the diagonal, where
// self-arcs are excluded.
func (d *JointDistribution) orderedPairs(i, j int) float64 {
	ni := float64(d.Classes[i].Count)
	if i == j {
		return ni * (ni - 1)
	}
	return ni * float64(d.Classes[j].Count)
}

// ChungLuProbabilities returns the naive directed Chung-Lu matrix
// P(i→j) = min(1, out_i·in_j/m).
func ChungLuProbabilities(d *JointDistribution) *probgen.Matrix {
	k := d.NumClasses()
	m := probgen.NewMatrix(k)
	arcs := float64(d.NumArcs())
	if arcs == 0 {
		return m
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p := float64(d.Classes[i].Out) * float64(d.Classes[j].In) / arcs
			if p > 1 {
				p = 1
			}
			m.SetOrdered(i, j, p)
		}
	}
	return m
}
