package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

// opDeadline bounds one sample or request; a miss counts as a failed
// operation.
const opDeadline = 60 * time.Second

// lap is one timed operation: its wall-clock time, and that time less
// the steal the host reported on its vCPUs meanwhile.
type lap struct{ wall, adj time.Duration }

// stopwatch times one operation.
type stopwatch struct {
	start time.Time
	steal time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), stealTime()} }

// stop ends the lap. On a shared VM the hypervisor runs other guests on
// this guest's vCPUs for a varying share of the time; that steal is the
// neighbours' load, not the program's, and is taken out of every
// reported time. Without steal, adj equals wall.
func (w stopwatch) stop() lap {
	wall := time.Since(w.start)
	adj := wall - (stealTime() - w.steal)
	// Steal is counted in 10 ms ticks across all vCPUs; never let the
	// estimate swallow the operation.
	adj = max(adj, wall/10)
	return lap{wall, adj}
}

// blockSpan is the least timed work in one throughput block: rates are
// taken per block and the median reported, so a stall of the host in
// one stretch of the window moves one block, not the whole figure.
const blockSpan = time.Second

// series collects one worker width's timed samples.
type series struct {
	lat    []float64 // per-sample steal-adjusted latency, ms
	busy   time.Duration
	wall   time.Duration
	ok     int
	blocks []block // closed throughput blocks
	open   block   // the block being filled
}

// block is a stretch of consecutive timed work and the verified
// operations in it.
type block struct {
	ok   int
	busy time.Duration
}

func (s *series) add(l lap, ok bool) {
	n := 0
	if ok {
		n = 1
		s.lat = append(s.lat, ms(l.adj))
	}
	s.addWork(l, n)
}

// addWork adds timed work that verified ok operations to the totals and
// the open block, closing the block once it spans blockSpan.
func (s *series) addWork(l lap, ok int) {
	s.busy += l.adj
	s.wall += l.wall
	s.ok += ok
	s.open.ok += ok
	s.open.busy += l.adj
	if s.open.busy >= blockSpan {
		s.blocks = append(s.blocks, s.open)
		s.open = block{}
	}
}

// rate is verified operations per second of timed work: the median over
// the window's blocks, a trailing block shorter than blockSpan folded
// into the one before it.
func (s *series) rate() float64 {
	blocks := slices.Clone(s.blocks)
	if s.open.busy > 0 {
		if len(blocks) == 0 {
			blocks = append(blocks, s.open)
		} else {
			blocks[len(blocks)-1].ok += s.open.ok
			blocks[len(blocks)-1].busy += s.open.busy
		}
	}
	var rates []float64
	for _, b := range blocks {
		if b.busy > 0 {
			rates = append(rates, float64(b.ok)/b.busy.Seconds())
		}
	}
	return median(rates)
}

// wallRate is rate by the wall clock, steal included.
func (s *series) wallRate() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.ok) / s.wall.Seconds()
}

// repeatSetup builds the set-up setupRepeats times, discarding all but
// the last, and returns it with the median build time in seconds.
func repeatSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			discard(last)
			// Collect the discarded set-up now, so its garbage does not
			// land in the measured set-up's peak memory at a GC-timing
			// dependent moment.
			runtime.GC()
		}
		w := startWatch()
		s, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, w.stop().adj.Seconds())
		last = s
	}
	return last, median(secs), nil
}

// endToEnd assembles the end-to-end metrics of an untraced run: main
// holds the samples at full width (or nproc clients), w1 those at one
// worker (or one client).
func endToEnd(main, w1 *series, setupS float64, swapped []float64) (map[string]metric, error) {
	mem, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	// The wall-clock figures, steal included, for the record.
	stolen := 0.0
	if t := main.wall + w1.wall; t > 0 {
		stolen = 100 * (1 - (main.busy+w1.busy).Seconds()/t.Seconds())
	}
	if err := printJSON(map[string]any{"wall_clock": map[string]float64{
		"ops_per_s": main.wallRate(), "ops_per_s.w1": w1.wallRate(), "steal_pct": stolen,
	}}); err != nil {
		return nil, err
	}
	return map[string]metric{
		"ops_per_s":      {main.rate(), "1/s"},
		"ops_per_s.w1":   {w1.rate(), "1/s"},
		"latency_p50_ms": {median(main.lat), "ms"},
		"setup_s":        {setupS, "s"},
		"mem_peak_mb":    {mem, "MiB"},
		"swapped_frac":   {mean(swapped), "fraction"},
	}, nil
}

// op is one verified operation of a pipeline: its output hash, its
// timing, and how well it mixed (swapped_frac).
type op struct {
	hash    uint64
	lap     lap
	swapped float64
}

// runSamples is the untraced run of gen-skewed, directed-shuffle and
// connected-sparse: the workload's public-API operation at full width
// and at one worker, alternating so drift on the host hits both alike,
// each one verified.
func runSamples(cfg config) (*result, error) {
	var t tally
	full, one := width{cfg.nproc, ""}, width{1, ".w1"}
	p, setupS, err := repeatSetup(func() (pipeline, error) {
		p, err := newPipeline(cfg.workload, cfg)
		if err != nil {
			return nil, err
		}
		// Warm-up: the first operation per width builds the engine,
		// caches the probability matrix and sizes every buffer; it
		// stays out of the timed window.
		for _, w := range []width{full, one} {
			if _, err := p.untraced(w, 0); !t.record(err) {
				p.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return p, nil
	}, func(p pipeline) { p.close() })
	if err != nil {
		return nil, err
	}
	defer p.close()
	var main, w1 series
	var swapped []float64
	for s, deadline := uint64(1), time.Now().Add(cfg.window); s == 1 || time.Now().Before(deadline); s++ {
		o, err := p.untraced(full, s)
		ok := t.record(err)
		main.add(o.lap, ok)
		if ok {
			swapped = append(swapped, o.swapped)
		}
		o, err = p.untraced(one, s)
		w1.add(o.lap, t.record(err))
	}
	m, err := endToEnd(&main, &w1, setupS, swapped)
	if err != nil {
		return nil, err
	}
	return newResult(&t, m), nil
}
