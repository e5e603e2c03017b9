package degseq

import (
	"fmt"
	"math"

	"nullgraph/internal/rng"
)

// PowerLawConfig describes a discrete truncated power-law degree
// distribution: P(d) ∝ d^(-Gamma) for d in [MinDegree, MaxDegree].
// This is the synthetic stand-in for the paper's SNAP-derived
// distributions (see DESIGN.md §4): every experiment consumes only the
// degree distribution, and skew/density are controlled by Gamma,
// MinDegree and MaxDegree.
type PowerLawConfig struct {
	NumVertices int64
	MinDegree   int64
	MaxDegree   int64
	Gamma       float64
	Seed        uint64
}

// Validate checks the configuration for internal consistency.
func (c PowerLawConfig) Validate() error {
	switch {
	case c.NumVertices <= 0:
		return fmt.Errorf("degseq: NumVertices = %d, want > 0", c.NumVertices)
	case c.MinDegree < 1:
		return fmt.Errorf("degseq: MinDegree = %d, want >= 1", c.MinDegree)
	case c.MaxDegree < c.MinDegree:
		return fmt.Errorf("degseq: MaxDegree = %d < MinDegree = %d", c.MaxDegree, c.MinDegree)
	case c.MaxDegree >= c.NumVertices:
		return fmt.Errorf("degseq: MaxDegree = %d must be < NumVertices = %d for a simple graph", c.MaxDegree, c.NumVertices)
	case c.Gamma <= 0:
		return fmt.Errorf("degseq: Gamma = %v, want > 0", c.Gamma)
	}
	return nil
}

// SamplePowerLaw draws a degree sequence of NumVertices degrees i.i.d.
// from the truncated power law, then repairs it to an even stub count
// (incrementing one vertex's degree by 1 if needed, as configuration-
// model codes conventionally do) and finally nudges it to graphicality.
// The result is returned as a Distribution.
func SamplePowerLaw(cfg PowerLawConfig) (*Distribution, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	// Build the class weights once; the support is small (d_max values).
	support := cfg.MaxDegree - cfg.MinDegree + 1
	weights := make([]float64, support)
	for i := range weights {
		d := float64(cfg.MinDegree + int64(i))
		weights[i] = math.Pow(d, -cfg.Gamma)
	}
	sampler := rng.NewAliasSampler(weights)
	counts := make([]int64, support)
	for v := int64(0); v < cfg.NumVertices; v++ {
		counts[sampler.Sample(r)]++
	}
	// Ensure the maximum degree actually appears, so the synthetic
	// dataset hits its advertised d_max (it drives the skew phenomena
	// the paper studies). Move one vertex from the most populous class.
	if counts[support-1] == 0 {
		biggest := 0
		for i := range counts {
			if counts[i] > counts[biggest] {
				biggest = i
			}
		}
		counts[biggest]--
		counts[support-1]++
	}
	dist := distFromSupport(cfg.MinDegree, counts)
	repairParity(dist)
	if err := nudgeGraphical(dist); err != nil {
		return nil, err
	}
	return dist, nil
}

func distFromSupport(minDegree int64, counts []int64) *Distribution {
	classes := make([]Class, 0, len(counts))
	for i, n := range counts {
		if n > 0 {
			classes = append(classes, Class{Degree: minDegree + int64(i), Count: n})
		}
	}
	return &Distribution{Classes: classes}
}

// repairParity makes the stub count even by shifting one vertex between
// adjacent degree classes.
func repairParity(d *Distribution) {
	if d.NumStubs()%2 == 0 {
		return
	}
	// Find an odd-degree class and move one vertex up by one degree.
	for i := range d.Classes {
		if d.Classes[i].Degree%2 == 1 {
			moveOne(d, i, d.Classes[i].Degree+1)
			return
		}
	}
	// All degrees even yet odd stub total is impossible; nothing to do.
}

// moveOne moves a single vertex from class index i to degree newDeg,
// restoring distribution invariants.
func moveOne(d *Distribution, i int, newDeg int64) {
	counts := map[int64]int64{}
	for _, c := range d.Classes {
		counts[c.Degree] = c.Count
	}
	old := d.Classes[i].Degree
	counts[old]--
	if counts[old] == 0 {
		delete(counts, old)
	}
	counts[newDeg]++
	nd, err := FromCounts(counts)
	if err != nil {
		// Cannot happen: counts are positive by construction.
		panic(err)
	}
	d.Classes = nd.Classes
}

// nudgeGraphical decreases the maximum degree until the sequence passes
// Erdős–Gallai. Power-law draws with d_max < n are almost always
// graphical already; the loop exists for adversarial parameter choices
// and for small analogs whose cutoff is floored high against n. Each
// step keeps the stub total and moves one unit of degree from the top
// of the sequence to its bottom, so the stub total bounds the number of
// steps; a fixed cap of 1024 cut off repairs that needed more.
func nudgeGraphical(d *Distribution) error {
	for iter, steps := int64(0), d.NumStubs(); iter < steps; iter++ {
		if d.IsGraphical() {
			return nil
		}
		top := len(d.Classes) - 1
		if top < 0 || d.Classes[top].Degree <= 1 {
			return fmt.Errorf("degseq: could not repair sequence to graphical")
		}
		// Move one max-degree vertex down by one; parity is preserved by
		// also moving one min-degree vertex up by one.
		moveOne(d, len(d.Classes)-1, d.Classes[len(d.Classes)-1].Degree-1)
		moveOne(d, 0, d.Classes[0].Degree+1)
	}
	return fmt.Errorf("degseq: graphicality repair did not converge")
}
