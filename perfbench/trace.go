package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"nullgraph"
)

// span is one timed call at a layer boundary. Parent is the index of
// the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name up to its first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one goroutine; they are written out
// when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (tr *tracer) begin(name string) {
	parent := int32(-1)
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.open = append(tr.open, int32(len(tr.spans)))
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Start: int64(time.Since(tr.t0))})
}

// end closes the innermost open span and returns its duration.
func (tr *tracer) end() time.Duration {
	n := len(tr.open) - 1
	id := tr.open[n]
	tr.open = tr.open[:n]
	tr.spans[id].End = int64(time.Since(tr.t0))
	return tr.spans[id].dur()
}

// child records a finished span, measured elsewhere, as a child of
// the innermost open span.
func (tr *tracer) child(name string, start, end time.Time) {
	tr.spans = append(tr.spans, span{Name: name, Parent: tr.open[len(tr.open)-1],
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
}

// selfTimes returns, for each root span name, the mean self time per
// root of every layer beneath it, in ms. A span's self time is its
// duration minus the time its direct children cover.
func (tr *tracer) selfTimes() map[string]map[string]float64 {
	child := make([]time.Duration, len(tr.spans))
	root := make([]int32, len(tr.spans))
	for i, s := range tr.spans {
		if s.Parent < 0 {
			root[i] = int32(i)
			continue
		}
		root[i] = root[s.Parent]
		child[s.Parent] += s.dur()
	}
	total := map[string]map[string]time.Duration{}
	roots := map[string]int{}
	for i, s := range tr.spans {
		rn := tr.spans[root[i]].Name
		if s.Parent < 0 {
			roots[rn]++
		}
		if total[rn] == nil {
			total[rn] = map[string]time.Duration{}
		}
		total[rn][s.layer()] += s.dur() - child[i]
	}
	out := map[string]map[string]float64{}
	for rn, layers := range total {
		out[rn] = map[string]float64{}
		for l, d := range layers {
			out[rn][l] = ms(d) / float64(roots[rn])
		}
	}
	return out
}

// write saves the spans and self times as JSON.
func (tr *tracer) write(path string, self map[string]map[string]float64) error {
	b, err := json.Marshal(map[string]any{"spans": tr.spans, "self_ms": self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// observations collects per-layer measurements by metric name; a
// metric's value is the median of its observations.
type observations map[string][]float64

func (o observations) add(name string, v float64) { o[name] = append(o[name], v) }

// width is one worker count a pipeline runs at; suffix tells its
// metrics apart (".w1" for the one-worker runs).
type width struct {
	p      int
	suffix string
}

// pipeline is one workload replayed layer by layer.
type pipeline interface {
	// untraced runs operation (w, s) through the public API, as the
	// untraced benchmark measures it, and verifies the output.
	untraced(w width, s uint64) (op, error)
	// traced replays the same operation through the layers' own
	// functions under one root span, with the engine's seeds and
	// options, and returns its output hash.
	traced(tr *tracer, w width, s uint64) (uint64, error)
	// extras runs the pipeline's layer measurements that are not part
	// of one operation.
	extras(tr *tracer) error
	// edges is the pipeline's edge array, on which the hidden kernels
	// are timed.
	edges() []nullgraph.Edge
	obs() observations
	close()
}

// pipelineOrder is the fallback order for per-layer metrics the
// selected workload does not exercise.
var pipelineOrder = []string{"gen-skewed", "serve-churn", "connected-sparse", "directed-shuffle"}

func newPipeline(name string, cfg config) (pipeline, error) {
	switch name {
	case "gen-skewed":
		return newGenPipeline(cfg)
	case "directed-shuffle":
		return newDirectedPipeline(cfg), nil
	case "connected-sparse":
		return newConnectedPipeline(cfg)
	case "serve-churn":
		return newServePipeline(cfg)
	}
	return nil, fmt.Errorf("no pipeline %q", name)
}

// runTraced replays every workload through its layers — the selected
// one for the whole window, the others once each so every layer is
// measured — and reports the per-layer metrics, with untraced
// operations alongside for the tracing overhead.
func runTraced(cfg config) (*result, error) {
	tr := newTracer()
	var t tally
	full, one := width{cfg.nproc, ""}, width{1, ".w1"}
	pipes := map[string]pipeline{}
	defer func() {
		for _, p := range pipes {
			p.close()
		}
	}()
	for _, name := range pipelineOrder {
		p, err := newPipeline(name, cfg)
		if err != nil {
			return nil, err
		}
		pipes[name] = p
		// Replay fidelity: at one worker the replay must produce the
		// public API's output bit for bit, or it is not measuring the
		// program.
		u, err := p.untraced(one, 0)
		if !t.record(err) {
			return nil, fmt.Errorf("%s: untraced sample: %w", name, err)
		}
		ht, err := p.traced(tr, one, 0)
		if !t.record(err) {
			return nil, fmt.Errorf("%s: traced sample: %w", name, err)
		}
		if u.hash != ht {
			return nil, fmt.Errorf("%s: replay diverges from the public API at Workers=1 (hash %#x, want %#x)", name, ht, u.hash)
		}
		fmt.Printf("replay fidelity %s: ok (%#x)\n", name, ht)
		if name != cfg.workload {
			// One full-width operation, so the layers this workload
			// alone exercises are measured at both widths.
			if _, err := p.untraced(full, 0); !t.record(err) {
				return nil, fmt.Errorf("%s: untraced sample: %w", name, err)
			}
			if _, err := p.traced(tr, full, 0); !t.record(err) {
				return nil, fmt.Errorf("%s: traced sample: %w", name, err)
			}
		}
		if err := p.extras(tr); !t.record(err) {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}

	sel := pipes[cfg.workload]
	o := sel.obs()
	var before, after runtime.MemStats
	var untracedMs, tracedMs []float64
	var gcs, pauseNs uint64
	ops := 0
	for s, deadline := uint64(1), time.Now().Add(cfg.window); s == 1 || time.Now().Before(deadline); s++ {
		for _, w := range []width{full, one} {
			runtime.ReadMemStats(&before)
			u, err := sel.untraced(w, s)
			runtime.ReadMemStats(&after)
			if !t.record(err) {
				continue
			}
			if w == full {
				ops++
				untracedMs = append(untracedMs, ms(u.lap.wall))
				gcs += uint64(after.NumGC - before.NumGC)
				pauseNs += after.PauseTotalNs - before.PauseTotalNs
				o.add("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
				o.add("allocs_per_op", float64(after.Mallocs-before.Mallocs))
			}
			n := len(tr.spans)
			if _, err := sel.traced(tr, w, s); !t.record(err) {
				continue
			}
			if w == full {
				tracedMs = append(tracedMs, ms(tr.spans[n].dur()))
			}
		}
	}
	o.add("trace.overhead_pct", 100*(mean(tracedMs)/mean(untracedMs)-1))
	// Collections are rare events: report their rate over all the
	// operations, not a per-operation median that would read 0.
	o.add("gc.cycles", float64(gcs)/float64(ops))
	o.add("gc.pause_ms", float64(pauseNs)/1e6/float64(ops))
	if err := kernels(tr, cfg, sel.edges(), o); err != nil {
		return nil, err
	}

	// How much of an untraced gen-skewed sample the replayed layers
	// account for: edge-skipping, swap bind and steps, the cached
	// probability lookup and core's remainder, over the sample's time.
	// Means, unlike medians, add up, so the shortfall or excess over
	// 100% is comparable with trace.overhead_pct.
	if g := pipes["gen-skewed"].obs(); len(g["op_ms"]) > 0 {
		layers := mean(g["edgeskip.ms"]) + mean(g["swap.bind_ms"]) + mean(g["swap.steps_ms"]) +
			mean(g["core.phase.probabilities_ms"]) + mean(g["core.other_ms"])
		g.add("core.accounted_pct", 100*layers/mean(g["op_ms"]))
	}

	self := tr.selfTimes()
	printSelfTimes(self)
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut, self); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	metrics, err := perLayer(cfg.workload, pipes, self)
	if err != nil {
		return nil, err
	}
	metrics["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	return newResult(&t, metrics), nil
}

// printSelfTimes prints each root's per-layer self time.
func printSelfTimes(self map[string]map[string]float64) {
	roots := make([]string, 0, len(self))
	for r := range self {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	fmt.Println("self time per root span (ms):")
	for _, r := range roots {
		layers := make([]string, 0, len(self[r]))
		for l := range self[r] {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var b strings.Builder
		for _, l := range layers {
			fmt.Fprintf(&b, " %s=%.3f", l, self[r][l])
		}
		fmt.Printf("  %-28s%s\n", r, b.String())
	}
}

// perLayerMetric is one per-layer metric with its unit.
type perLayerMetric struct{ name, unit string }

// perLayerMetrics is every per-layer metric a traced run reports.
var perLayerMetrics = []perLayerMetric{
	{"swap.step_ms", "ms"}, {"swap.step_ms.w1", "ms"}, {"swap.accept_ratio", "ratio"},
	{"swap.bind_ms", "ms"}, {"swap.allocs_per_step", "count"}, {"swap.swapped_frac", "fraction"},
	{"permute.targets_ms", "ms"}, {"permute.apply_ms", "ms"}, {"permute.apply_ms.w1", "ms"},
	{"hashtable.tas_ns", "ns"}, {"hashtable.tas_ns.w1", "ns"}, {"hashtable.probes_per_op", "count"},
	{"hashtable.clear_ms", "ms"},
	{"rng.draw_ns", "ns"},
	{"par.run_us", "us"},
	{"probgen.ms", "ms"}, {"probgen.classes", "count"},
	{"edgeskip.ms", "ms"}, {"edgeskip.edges_per_s", "1/s"},
	{"core.phase.probabilities_ms", "ms"}, {"core.phase.edge_generation_ms", "ms"},
	{"core.phase.swapping_ms", "ms"}, {"core.other_ms", "ms"}, {"core.accounted_pct", "%"},
	{"directed.step_ms", "ms"}, {"directed.step_ms.w1", "ms"}, {"directed.accept_ratio", "ratio"},
	{"directed.engine_ms", "ms"}, {"directed.replaced_frac", "fraction"},
	{"connected.check_ns", "ns"}, {"connected.fast_path_ratio", "ratio"},
	{"connected.bounded_conclusive_ratio", "ratio"}, {"connected.full_checks", "count"},
	{"connected.rejected_ratio", "ratio"},
	{"serve.acquire_ms", "ms"}, {"serve.generate_ms", "ms"}, {"serve.encode_ms", "ms"},
	{"serve.http_ms", "ms"}, {"serve.pool_keys_per_req", "ratio"}, {"serve.pool_idle_per_req", "ratio"},
	{"quality.edges_err_pct", "%"},
	{"gc.cycles", "count/op"}, {"gc.pause_ms", "ms/op"}, {"alloc_mb_per_op", "MiB"}, {"allocs_per_op", "count"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
	{"self_ms.replay", "ms"}, {"self_ms.probgen", "ms"}, {"self_ms.edgeskip", "ms"}, {"self_ms.swap", "ms"},
	{"self_ms.directed", "ms"}, {"self_ms.connected", "ms"}, {"self_ms.serve", "ms"}, {"self_ms.http", "ms"},
}

// perLayer reduces the observations to one value per metric: the
// selected workload's own when it exercises the layer, else the first
// pipeline in pipelineOrder that does.
func perLayer(selected string, pipes map[string]pipeline, self map[string]map[string]float64) (map[string]metric, error) {
	order := append([]string{selected}, slices.DeleteFunc(slices.Clone(pipelineOrder), func(n string) bool { return n == selected })...)
	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		if m.name == "trace.spans" {
			continue
		}
		if layer, ok := strings.CutPrefix(m.name, "self_ms."); ok {
			for _, name := range order {
				if v := selfOf(self, name, layer); v > 0 {
					out[m.name] = metric{v, m.unit}
					break
				}
			}
		} else {
			for _, name := range order {
				if vs := pipes[name].obs()[m.name]; len(vs) > 0 {
					out[m.name] = metric{median(vs), m.unit}
					break
				}
			}
		}
		if _, ok := out[m.name]; !ok {
			return nil, fmt.Errorf("no pipeline measured %s", m.name)
		}
	}
	return out, nil
}

// selfOf is a layer's self time under the workload's root spans.
func selfOf(self map[string]map[string]float64, workload, layer string) float64 {
	for _, root := range []string{"replay.", "layers.", "http.", "kernels."} {
		if v := self[root+workload][layer]; v > 0 {
			return v
		}
	}
	return 0
}
