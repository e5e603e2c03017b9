package main

import (
	"fmt"
	"slices"
	"time"

	"nullgraph"
	"nullgraph/internal/hashtable"
	"nullgraph/internal/par"
	"nullgraph/internal/permute"
	"nullgraph/internal/rng"
)

// kernelRepeats is how many times each hidden kernel is timed; its
// metric is the median.
const kernelRepeats = 5

// kernels times the kernels swap.Step hides — hash-table inserts and
// clear, permutation targets and apply, RNG draws, pool fork/join — on
// the workload's own edge array, at the engine's sizes: a table of 2m
// slots, as the swap engine binds, and m-element permutations.
func kernels(tr *tracer, cfg config, edges []nullgraph.Edge, o observations) error {
	m := len(edges)
	if m < 2 {
		return fmt.Errorf("kernels need at least two edges, have %d", m)
	}
	keys := make([]uint64, m)
	for i, e := range edges {
		keys[i] = e.Key()
	}
	pool := par.NewPool(cfg.nproc)
	defer pool.Close()
	pool1 := par.NewPool(1)
	defer pool1.Close()
	tr.begin("kernels." + cfg.workload)
	defer tr.end()

	timed := func(name string, f func()) time.Duration {
		tr.begin(name)
		f()
		return tr.end()
	}
	perOp := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

	for rep := 0; rep < kernelRepeats; rep++ {
		// Hash table at full width: the register phase's access pattern.
		table := hashtable.New(2*m, hashtable.Linear)
		writers := table.NewCountingWriters(pool.Workers())
		d := timed("hashtable.tas", func() {
			pool.Run(m, func(w int, r par.Range) {
				wtr := writers[w]
				for i := r.Begin; i < r.End; i++ {
					wtr.TestAndSet(keys[i])
				}
			})
		})
		o.add("hashtable.tas_ns", perOp(d, m))
		d = timed("hashtable.clear", func() { table.ClearWriters(writers, pool.Workers()) })
		o.add("hashtable.clear_ms", ms(d))

		// One writer: the serial cost, then the probe count, which is
		// exact with one writer.
		one := table.NewCountingWriters(1)
		d = timed("hashtable.tas", func() {
			for _, k := range keys {
				one[0].TestAndSet(k)
			}
		})
		o.add("hashtable.tas_ns.w1", perOp(d, m))
		table.ClearWriters(one, 1)
		probes := 0
		for _, k := range keys {
			_, p := one[0].TestAndSetProbed(k)
			probes += p
		}
		o.add("hashtable.probes_per_op", float64(probes)/float64(m))
		table.ClearWriters(one, 1)

		// Permutation: targets, then the reservation applier over the
		// edges at full width and one worker.
		h := make([]int32, m)
		seed := cfg.seed + uint64(rep)
		d = timed("permute.targets", func() { permute.TargetsInto(seed, pool.Workers(), h) })
		o.add("permute.targets_ms", ms(d))
		data := slices.Clone(edges)
		ap := permute.NewApplier[nullgraph.Edge](permute.NewScratch())
		d = timed("permute.apply", func() { ap.Apply(data, h, pool.Workers(), pool) })
		o.add("permute.apply_ms", ms(d))
		permute.TargetsInto(seed, 1, h)
		d = timed("permute.apply", func() { ap.Apply(data, h, 1, pool1) })
		o.add("permute.apply_ms.w1", ms(d))

		// RNG: the bounded draws the sweep and targets make.
		const draws = 1 << 22
		var b rng.Block
		b.Reseed(seed)
		var sink uint64
		d = timed("rng.draw", func() {
			for i := 0; i < draws; i++ {
				sink += b.Uint64n(uint64(m))
			}
		})
		if sink == 0 {
			return fmt.Errorf("rng kernel drew only zeros")
		}
		o.add("rng.draw_ns", perOp(d, draws))

		// Pool fork/join with an empty body: the fixed cost every
		// parallel phase pays.
		const runs = 2000
		empty := func(int, par.Range) {}
		d = timed("par.run", func() {
			for i := 0; i < runs; i++ {
				pool.Run(pool.Workers(), empty)
			}
		})
		o.add("par.run_us", perOp(d, runs)/1e3)
	}
	return nil
}
