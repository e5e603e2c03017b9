// Command nullgen generates a uniformly random simple graph from a
// degree distribution (the paper's Algorithm IV.1) and writes it as a
// text edge list.
//
// The distribution comes from one of three sources:
//
//	-dist FILE      "degree count" lines
//	-powerlaw N     synthetic power law (see -gamma, -dmin, -dmax)
//	-dataset NAME   a Table I analog (Meso, as20, WikiTalk, ...)
//
// Usage examples:
//
//	nullgen -powerlaw 100000 -gamma 2.1 -dmax 1000 -swaps 10 -o graph.txt
//	nullgen -dataset as20 -swaps 10 -o as20-null.txt
//	nullgen -dist degrees.txt -mix -o graph.txt
//	nullgen -powerlaw 100000 -adaptive -o graph.txt  # adaptive stopping
//	nullgen -powerlaw 100000 -report report.json   # chain-health report
//
// Invalid flag combinations exit with status 2; runtime failures exit
// with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nullgraph"
	"nullgraph/internal/atomicfile"
	"nullgraph/internal/datasets"
	"nullgraph/internal/obs"
)

// config carries the parsed flags, decoupled from the flag package so
// the validation rules are unit-testable.
type config struct {
	Space      string
	Connected  bool
	DistFile   string
	Joint      string
	Dataset    string
	PowerLaw   int64
	Gamma      float64
	DMin       int64
	DMax       int64
	MaxVerts   int64
	Swaps      int
	Mix        bool
	Adaptive   bool
	StopStat   string
	StopFloor  int
	StopBudget int
	Workers    int
	Seed       uint64
	Out        string
	Binary     bool
	Report     string
	Pprof      string
	CPUProfile string
	Quiet      bool
	Timeout    time.Duration
}

// validateConfig rejects flag combinations that cannot produce a run:
// zero or multiple distribution sources, non-positive power-law
// parameters, an inverted degree range, or a negative swap count.
func validateConfig(c config) error {
	sources := 0
	for _, set := range []bool{c.DistFile != "", c.Joint != "", c.Dataset != "", c.PowerLaw != 0} {
		if set {
			sources++
		}
	}
	if sources == 0 {
		return errors.New("one of -dist, -joint, -dataset or -powerlaw is required")
	}
	if sources > 1 {
		return errors.New("-dist, -joint, -dataset and -powerlaw are mutually exclusive; pass exactly one")
	}
	if c.Swaps < 0 {
		return fmt.Errorf("-swaps must be >= 0 (got %d)", c.Swaps)
	}
	space, err := nullgraph.ParseSpace(c.Space)
	if err != nil {
		return err
	}
	if c.Joint != "" && space != nullgraph.SpaceSimple {
		return errors.New("-space is not supported with -joint (the space matrix is undirected)")
	}
	if c.Connected {
		if c.Joint != "" {
			return errors.New("-connected is not supported with -joint (connected sampling is undirected)")
		}
		if space != nullgraph.SpaceSimple && space != nullgraph.SpaceSimpleVertex {
			return fmt.Errorf("-connected requires a simple space (got -space %s)", c.Space)
		}
	}
	if c.PowerLaw != 0 {
		if c.PowerLaw < 0 {
			return fmt.Errorf("-powerlaw vertex count must be positive (got %d)", c.PowerLaw)
		}
		if c.Gamma <= 1 {
			return fmt.Errorf("-gamma must be > 1 (got %v); the power-law normalization diverges at 1", c.Gamma)
		}
		if c.DMin < 1 {
			return fmt.Errorf("-dmin must be >= 1 (got %d)", c.DMin)
		}
		if c.DMin > c.DMax {
			return fmt.Errorf("-dmin %d exceeds -dmax %d", c.DMin, c.DMax)
		}
	}
	if c.Adaptive && c.Mix {
		return errors.New("-adaptive and -mix are mutually exclusive; pass at most one")
	}
	if !c.Adaptive && (c.StopFloor != 0 || c.StopBudget != 0) {
		return errors.New("-stop-floor and -stop-budget require -adaptive")
	}
	if c.StopFloor < 0 || c.StopBudget < 0 {
		return fmt.Errorf("-stop-floor and -stop-budget must be >= 0 (got %d, %d)", c.StopFloor, c.StopBudget)
	}
	if c.StopBudget > 0 && c.StopFloor > c.StopBudget {
		return fmt.Errorf("-stop-floor %d exceeds -stop-budget %d", c.StopFloor, c.StopBudget)
	}
	if _, err := parseStopStat(c.StopStat); err != nil {
		return err
	}
	if c.Timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", c.Timeout)
	}
	if c.Binary && c.Joint != "" {
		return errors.New("-binary is not supported with -joint (no binary arc-list format)")
	}
	return nil
}

// runContext builds the run's context: SIGINT/SIGTERM always cancel it
// (graceful stop — cooperative checkpoints abandon the sample and exit
// cleanly instead of killing the process mid-write), and -timeout, when
// positive, bounds the wall time.
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancelSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, cancelSig
	}
	ctx, cancelTime := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancelTime(); cancelSig() }
}

func main() {
	var c config
	flag.StringVar(&c.Space, "space", "simple", "sampling space for the mixing chain: simple, loopy-stub, loopy-vertex, multigraph-stub or multigraph-vertex")
	flag.BoolVar(&c.Connected, "connected", false, "sample connected simple graphs only (Viger–Latapy connectivity-preserving chain; requires a simple -space)")
	flag.StringVar(&c.DistFile, "dist", "", "read the degree distribution from this file (\"degree count\" lines)")
	flag.StringVar(&c.Joint, "joint", "", "generate a DIGRAPH from this joint distribution file (\"out in count\" lines)")
	flag.Int64Var(&c.PowerLaw, "powerlaw", 0, "sample a power-law distribution over this many vertices")
	flag.Float64Var(&c.Gamma, "gamma", 2.1, "power-law exponent (with -powerlaw)")
	flag.Int64Var(&c.DMin, "dmin", 1, "minimum degree (with -powerlaw)")
	flag.Int64Var(&c.DMax, "dmax", 1000, "maximum degree (with -powerlaw)")
	flag.StringVar(&c.Dataset, "dataset", "", "use a Table I analog distribution (Meso, as20, WikiTalk, DBPedia, LiveJournal, Friendster, Twitter, uk-2005)")
	flag.Int64Var(&c.MaxVerts, "max-vertices", 0, "cap for dataset analog sizes (0 = package default)")
	flag.IntVar(&c.Swaps, "swaps", 10, "double-edge swap iterations for mixing")
	flag.BoolVar(&c.Mix, "mix", false, "swap until every edge has swapped at least once (overrides -swaps)")
	flag.BoolVar(&c.Adaptive, "adaptive", false, "stop swapping adaptively when the monitored statistic tests stationary (overrides -swaps)")
	flag.StringVar(&c.StopStat, "stop-stat", "assortativity", "adaptive statistic: assortativity, triangles or success-rate (with -adaptive; -joint always monitors success-rate)")
	flag.IntVar(&c.StopFloor, "stop-floor", 0, "minimum swap iterations before an adaptive stop (0 = default)")
	flag.IntVar(&c.StopBudget, "stop-budget", 0, "maximum swap iterations for an adaptive run (0 = default)")
	flag.IntVar(&c.Workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.Uint64Var(&c.Seed, "seed", 1, "random seed")
	flag.StringVar(&c.Out, "o", "-", "output edge list path (- = stdout); files are written atomically (temp + rename)")
	flag.BoolVar(&c.Binary, "binary", false, "write the compact binary edge-list format instead of text")
	flag.StringVar(&c.Report, "report", "", "write a chain-health RunReport (JSON) to this path (- = stdout)")
	flag.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.BoolVar(&c.Quiet, "q", false, "suppress the summary line on stderr")
	flag.DurationVar(&c.Timeout, "timeout", 0, "abandon the run after this long (e.g. 30s; 0 = no limit); SIGINT/SIGTERM also stop it gracefully")
	flag.Parse()

	if err := validateConfig(c); err != nil {
		fmt.Fprintln(os.Stderr, "nullgen:", err)
		os.Exit(2)
	}
	ctx, cancel := runContext(c.Timeout)
	defer cancel()
	if err := run(ctx, c); err != nil {
		fmt.Fprintln(os.Stderr, "nullgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, c config) error {
	if c.Pprof != "" {
		addr, err := obs.ServePprof(c.Pprof)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nullgen: pprof listening on http://%s/debug/pprof/\n", addr)
	}
	if c.CPUProfile != "" {
		stop, err := obs.StartCPUProfile(c.CPUProfile)
		if err != nil {
			return err
		}
		defer stop()
	}

	if c.Joint != "" {
		return generateDirected(ctx, c)
	}

	dist, err := loadDistribution(c)
	if err != nil {
		return err
	}
	if err := nullgraph.Validate(dist); err != nil {
		return err
	}
	res, err := nullgraph.GenerateContext(ctx, dist, nullgraph.Options{
		Space:           c.space(),
		Connected:       c.Connected,
		Workers:         c.Workers,
		Seed:            c.Seed,
		SwapIterations:  c.Swaps,
		MixUntilSwapped: c.Mix,
		StopPolicy:      c.stopPolicy(),
		CollectReport:   c.Report != "",
	})
	if err != nil {
		return err
	}

	if err := saveGraph(c, res.Graph); err != nil {
		return err
	}
	if c.Report != "" && res.Report != nil {
		if err := obs.WriteReportFile(c.Report, res.Report); err != nil {
			return err
		}
	}
	if !c.Quiet {
		stats := nullgraph.ComputeStats(res.Graph, c.Workers)
		q := nullgraph.Quality(res.Graph, dist, c.Workers)
		fmt.Fprintf(os.Stderr, "nullgen: n=%d m=%d d_max=%d |D|=%d | edge err %+.2f%% d_max err %+.2f%% | %d swap iterations%s\n",
			stats.NumVertices, stats.NumEdges, stats.MaxDegree, stats.UniqueDegrees,
			q.Edges*100, q.MaxDegree*100, len(res.SwapIterations), stopDesc(res.Stop))
	}
	return nil
}

// saveGraph writes the generated graph in the configured format.
// Stdout streams directly; file outputs go through atomicfile, so an
// interrupted or killed save can never leave a truncated file behind —
// in particular no partial binary edge list for ReadGraphBinary to
// reject later.
func saveGraph(c config, g *nullgraph.Graph) error {
	write := func(w io.Writer) error {
		if c.Binary {
			return nullgraph.WriteGraphBinary(w, g)
		}
		return nullgraph.WriteGraph(w, g)
	}
	if c.Out == "-" {
		return write(os.Stdout)
	}
	return atomicfile.Write(c.Out, write)
}

// space resolves the -space flag; validateConfig has already vetted it.
func (c config) space() nullgraph.Space {
	sp, err := nullgraph.ParseSpace(c.Space)
	if err != nil {
		panic("nullgen: space resolved before validateConfig: " + err.Error())
	}
	return sp
}

// stopPolicy maps the adaptive flags onto a StopPolicy; validateConfig
// has already vetted every field, so parseStopStat cannot fail here.
func (c config) stopPolicy() *nullgraph.StopPolicy {
	if !c.Adaptive {
		return nil
	}
	stat, err := parseStopStat(c.StopStat)
	if err != nil {
		panic("nullgen: stop policy built before validateConfig: " + err.Error())
	}
	return &nullgraph.StopPolicy{Statistic: stat, Floor: c.StopFloor, Budget: c.StopBudget}
}

// parseStopStat resolves the -stop-stat flag; "" means the default.
func parseStopStat(s string) (nullgraph.StopStatistic, error) {
	switch s {
	case "", "assortativity":
		return nullgraph.StopOnAssortativity, nil
	case "triangles":
		return nullgraph.StopOnTriangles, nil
	case "success-rate":
		return nullgraph.StopOnSuccessRate, nil
	}
	return 0, fmt.Errorf("-stop-stat must be assortativity, triangles or success-rate (got %q)", s)
}

// stopDesc renders the stop outcome for the summary line; fixed-budget
// runs say nothing (the iteration count already tells the story).
func stopDesc(st *nullgraph.StopReport) string {
	if st == nil || st.Policy != "adaptive" {
		return ""
	}
	return fmt.Sprintf(" | adaptive stop: %s (%s)", st.Reason, st.Statistic)
}

func loadDistribution(c config) (*nullgraph.DegreeDistribution, error) {
	switch {
	case c.DistFile != "":
		f, err := os.Open(c.DistFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return nullgraph.ReadDistribution(f)
	case c.Dataset != "":
		spec, err := datasets.ByName(c.Dataset)
		if err != nil {
			return nil, err
		}
		return datasets.Load(spec, datasets.LoadOptions{MaxVertices: c.MaxVerts, Seed: c.Seed})
	default: // validateConfig guarantees PowerLaw > 0 here
		return nullgraph.PowerLawDistribution(c.PowerLaw, c.DMin, c.DMax, c.Gamma, c.Seed)
	}
}

func generateDirected(ctx context.Context, c config) error {
	f, err := os.Open(c.Joint)
	if err != nil {
		return err
	}
	dist, err := nullgraph.ReadJointDistribution(f)
	f.Close()
	if err != nil {
		return err
	}
	res, err := nullgraph.GenerateDirectedContext(ctx, dist, nullgraph.Options{
		Workers:         c.Workers,
		Seed:            c.Seed,
		SwapIterations:  c.Swaps,
		MixUntilSwapped: c.Mix,
		StopPolicy:      c.stopPolicy(),
		CollectReport:   c.Report != "",
	})
	if err != nil {
		return err
	}
	writeArcs := func(w io.Writer) error { return nullgraph.WriteDigraph(w, res.Graph) }
	if c.Out == "-" {
		if err := writeArcs(os.Stdout); err != nil {
			return err
		}
	} else if err := atomicfile.Write(c.Out, writeArcs); err != nil {
		return err
	}
	if c.Report != "" && res.Report != nil {
		if err := obs.WriteReportFile(c.Report, res.Report); err != nil {
			return err
		}
	}
	if !c.Quiet {
		fmt.Fprintf(os.Stderr, "nullgen: digraph n=%d arcs=%d (target %d) | %d swap iterations%s\n",
			res.Graph.NumVertices, res.Graph.NumArcs(), dist.NumArcs(), len(res.SwapIterations), stopDesc(res.Stop))
	}
	return nil
}
