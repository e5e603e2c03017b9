package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"nullgraph/internal/datasets"
	"nullgraph/internal/havelhakimi"
	"nullgraph/internal/rng"
	"nullgraph/internal/swap"
)

// SwapScalePoint is one worker count's measurement on the LiveJournal
// analog, repeated over the configured number of trials.
type SwapScalePoint struct {
	Workers int
	// ThreeIterations holds each trial's wall time of 3 full swap
	// iterations (the paper's "successfully swap all edges" budget), in
	// trial order.
	ThreeIterations []time.Duration
	// TimeThreeIterations is the median of ThreeIterations.
	TimeThreeIterations time.Duration
	// TimeOneIteration is the median of one iteration's wall time.
	TimeOneIteration time.Duration
	// SwappedAfterOne is the fraction of edges swapped at least once
	// after a single iteration (the paper observes 99.9%... of
	// proposals succeeding on LiveJournal-like inputs).
	SwappedAfterOne float64
}

// SwapScaleResult reproduces the §VIII-C comparison: serial and parallel
// times to swap (nearly) all edges of the LiveJournal analog, against
// the numbers the paper quotes for itself and for Bhuiyan et al. [5].
type SwapScaleResult struct {
	Dataset string
	Edges   int
	Points  []SwapScalePoint
	// PaperSerialSeconds / PaperParallelSeconds are the paper's own
	// reported times (15 s serial, 3 s on 16 cores) for context in the
	// rendered report; the reproduced quantity is the speedup shape.
	PaperSerialSeconds   float64
	PaperParallelSeconds float64
}

// RunSwapScale measures swap throughput over a worker sweep.
func RunSwapScale(cfg Config) (*SwapScaleResult, error) {
	spec, err := datasets.ByName("LiveJournal")
	if err != nil {
		return nil, err
	}
	dist, err := cfg.load(spec)
	if err != nil {
		return nil, err
	}
	base, err := havelhakimi.Generate(dist)
	if err != nil {
		return nil, err
	}
	res := &SwapScaleResult{
		Dataset:              spec.Name,
		Edges:                base.NumEdges(),
		PaperSerialSeconds:   15,
		PaperParallelSeconds: 3,
	}
	maxWorkers := cfg.Workers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	for w := 1; w <= maxWorkers; w *= 2 {
		res.Points = append(res.Points, SwapScalePoint{Workers: w})
		if w < maxWorkers && w*2 > maxWorkers {
			w = maxWorkers / 2 // ensure the final sweep point is maxWorkers
		}
	}
	// The timed regions measure iterations, not set-up: each width gets
	// one engine, built and warmed by one Step before any timing, so the
	// table allocation, the pool start and the table's first-touch page
	// faults stay outside them. A trial times Reset plus 3 Steps, then
	// one Step of a freshly bound engine.
	engines := make([]*swap.Engine, len(res.Points))
	for k, pt := range res.Points {
		engines[k] = swap.NewEngine(base.Clone(), swap.Options{Workers: pt.Workers, Seed: rng.Mix64(cfg.Seed) + uint64(pt.Workers), TrackSwapped: true})
		defer engines[k].Close()
		engines[k].Step()
	}
	// One run of one width is a single sample of a noisy host, so every
	// width runs once per trial, and the widths alternate within a trial
	// (reversing order on odd trials) so slow host phases hit them alike.
	trials := cfg.trials()
	ones := make([][]time.Duration, len(res.Points))
	for t := 0; t < trials; t++ {
		for k := range res.Points {
			if t%2 == 1 {
				k = len(res.Points) - 1 - k
			}
			pt, eng := &res.Points[k], engines[k]
			el := base.Clone()
			start := time.Now()
			eng.Reset(el)
			first := eng.Step()
			eng.Step()
			eng.Step()
			pt.ThreeIterations = append(pt.ThreeIterations, time.Since(start))
			if t == 0 {
				pt.SwappedAfterOne = first.EverSwapped
			}
			eng.Reset(base.Clone())
			start = time.Now()
			eng.Step()
			ones[k] = append(ones[k], time.Since(start))
		}
	}
	for k := range res.Points {
		res.Points[k].TimeThreeIterations = medianDuration(res.Points[k].ThreeIterations)
		res.Points[k].TimeOneIteration = medianDuration(ones[k])
	}
	return res, nil
}

// medianDuration returns the median of ds (the upper middle for an even
// count) without reordering ds.
func medianDuration(ds []time.Duration) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// Speedup returns, for each point, the median of the per-trial ratios
// T(1)/T(p) of the 3-iteration measurement, and their min and max.
// Trial t's ratio divides the two widths' t-th runs, which ran within
// one round of the sweep.
func (r *SwapScaleResult) Speedup() (median, lo, hi []float64) {
	if len(r.Points) == 0 {
		return nil, nil, nil
	}
	base := r.Points[0].ThreeIterations
	for _, p := range r.Points {
		ratios := make([]float64, len(p.ThreeIterations))
		for t, d := range p.ThreeIterations {
			ratios[t] = base[t].Seconds() / d.Seconds()
		}
		slices.Sort(ratios)
		median = append(median, ratios[len(ratios)/2])
		lo = append(lo, ratios[0])
		hi = append(hi, ratios[len(ratios)-1])
	}
	return median, lo, hi
}

// Render prints the sweep: medians over the trials, with the min–max
// range of the 3-iteration time and of the speedup.
func (r *SwapScaleResult) Render(w io.Writer) {
	header(w, fmt.Sprintf("§VIII-C — swap scaling on the %s analog (%d edges)", r.Dataset, r.Edges))
	fmt.Fprintf(w, "paper (full-size, 16-core Xeon): %.0f s serial / %.0f s parallel for 3 iterations\n",
		r.PaperSerialSeconds, r.PaperParallelSeconds)
	if len(r.Points) > 0 {
		fmt.Fprintf(w, "medians of %d trials per width, widths alternating; min–max in brackets\n", len(r.Points[0].ThreeIterations))
	}
	fmt.Fprintf(w, "%8s %14s %21s %14s %8s %13s %16s\n",
		"workers", "3 iters (ms)", "[min–max]", "1 iter (ms)", "speedup", "[min–max]", "swapped after 1")
	speedup, lo, hi := r.Speedup()
	for i, p := range r.Points {
		fmt.Fprintf(w, "%8d %14s %21s %14s %8.2f %13s %15.1f%%\n",
			p.Workers, ms(p.TimeThreeIterations),
			fmt.Sprintf("[%.1f–%.1f]", msf(slices.Min(p.ThreeIterations)), msf(slices.Max(p.ThreeIterations))),
			ms(p.TimeOneIteration), speedup[i],
			fmt.Sprintf("[%.2f–%.2f]", lo[i], hi[i]), p.SwappedAfterOne*100)
	}
}

func msf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
