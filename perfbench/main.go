// Command perfbench is the repository's end-to-end benchmark: four
// workloads (gen-skewed, directed-shuffle, connected-sparse,
// serve-churn), each built from a workload seed, run for a fixed
// window, with every sample verified. With -trace 1 it instead replays
// the workload layer by layer and reports per-layer metrics. See
// README.md in this directory.
//
//	go build -o perfbench . && ./perfbench -workload gen-skewed -seed 1 -seconds 24 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	nproc    int
	traceOut string
}

// workloads maps each workload to its untraced run.
var workloads = map[string]func(config) (*result, error){
	"gen-skewed":       runSamples,
	"directed-shuffle": runSamples,
	"connected-sparse": runSamples,
	"serve-churn":      runServeChurn,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: gen-skewed, directed-shuffle, connected-sparse or serve-churn")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed builds the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 replays the workload layer by layer and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runFn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		nproc:    runtime.GOMAXPROCS(0),
		traceOut: *traceOut,
	}
	if err := printJSON(map[string]any{"host": hostInfo()}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runFn(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// newResult builds the output from an operation tally.
func newResult(t *tally, metrics map[string]metric) *result {
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	return &result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// hostInfo records what a result needs to stay readable across hosts.
func hostInfo() map[string]any {
	info := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
	}
	if model := cpuModel(); model != "" {
		info["cpu_model"] = model
	}
	for _, c := range []struct{ key, index string }{{"l2", "index2"}, {"l3", "index3"}} {
		if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + c.index + "/size"); err == nil {
			info[c.key] = strings.TrimSpace(string(b))
		}
	}
	return info
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// stealTime is the steal the host has reported across all vCPUs since
// boot (the aggregate cpu line of /proc/stat, in 10 ms ticks), or 0
// where the kernel reports none.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// quantile is the q-quantile of xs by linear interpolation (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
