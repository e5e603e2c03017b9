// Command edgeswap uniformly mixes an existing edge list with parallel
// double-edge swaps (the paper's Algorithm III.1), preserving every
// vertex's degree while randomizing the topology. In the default simple
// space, non-simple inputs (self-loops, multi-edges) are first made
// simple by a bounded targeted pass; -space selects one of the other
// sampling-space cells (loopy/multigraph × stub/vertex-labeled)
// instead, whose inputs must already satisfy the cell. With -directed
// the input is treated as an arc list and mixed with double-arc swaps
// plus triangle reversals, preserving in- AND out-degrees.
//
// Usage:
//
//	edgeswap -in graph.txt -swaps 10 -o shuffled.txt
//	edgeswap -in graph.txt -mix -o shuffled.txt     # swap until mixed
//	edgeswap -in graph.txt -adaptive -o shuffled.txt  # adaptive stopping
//	edgeswap -in multi.txt -space multigraph-stub -o shuffled.txt
//	edgeswap -in digraph.txt -directed -o shuffled.txt
//	edgeswap -in graph.txt -report report.json      # chain-health report
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"nullgraph"
	"nullgraph/internal/atomicfile"
	"nullgraph/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edgeswap:", err)
		os.Exit(1)
	}
}

// run parses args (the command line without the program name) and
// mixes the input they name.
func run(args []string) error {
	fs := flag.NewFlagSet("edgeswap", flag.ExitOnError)
	var (
		in         = fs.String("in", "", "input edge list (\"u v\" lines; - = stdin)")
		swaps      = fs.Int("swaps", 10, "double-edge swap iterations")
		mix        = fs.Bool("mix", false, "swap until every edge swapped at least once (overrides -swaps)")
		adaptive   = fs.Bool("adaptive", false, "stop swapping adaptively when the monitored statistic tests stationary (overrides -swaps)")
		stopStat   = fs.String("stop-stat", "assortativity", "adaptive statistic: assortativity, triangles or success-rate (with -adaptive; -directed always monitors success-rate)")
		stopFloor  = fs.Int("stop-floor", 0, "minimum swap iterations before an adaptive stop (0 = default)")
		stopBudget = fs.Int("stop-budget", 0, "maximum swap iterations for an adaptive run (0 = default)")
		spaceName  = fs.String("space", "simple", "sampling space: simple, loopy-stub, loopy-vertex, multigraph-stub or multigraph-vertex")
		connected  = fs.Bool("connected", false, "keep the graph connected while mixing (Viger–Latapy connectivity-preserving chain; requires a simple -space)")
		directed   = fs.Bool("directed", false, "treat the input as a directed arc list")
		workers    = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed       = fs.Uint64("seed", 1, "random seed")
		out        = fs.String("o", "-", "output path (- = stdout); files are written atomically (temp + rename)")
		binary     = fs.Bool("binary", false, "write the compact binary edge-list format instead of text")
		quiet      = fs.Bool("q", false, "suppress the summary line on stderr")
		report     = fs.String("report", "", "write a chain-health RunReport (JSON) to this path (- = stdout)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		timeout    = fs.Duration("timeout", 0, "abandon the run after this long (e.g. 30s; 0 = no limit); SIGINT/SIGTERM also stop it gracefully")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *binary && *directed {
		return fmt.Errorf("-binary is not supported with -directed (no binary arc-list format)")
	}
	space, err := nullgraph.ParseSpace(*spaceName)
	if err != nil {
		return err
	}
	if *directed && space != nullgraph.SpaceSimple {
		return fmt.Errorf("-space is not supported with -directed (the space matrix is undirected)")
	}
	if *connected {
		if *directed {
			return fmt.Errorf("-connected is not supported with -directed (connected sampling is undirected)")
		}
		if space != nullgraph.SpaceSimple && space != nullgraph.SpaceSimpleVertex {
			return fmt.Errorf("-connected requires a simple space (got -space %s)", *spaceName)
		}
	}
	if *adaptive && *mix {
		return fmt.Errorf("-adaptive and -mix are mutually exclusive; pass at most one")
	}
	if !*adaptive && (*stopFloor != 0 || *stopBudget != 0) {
		return fmt.Errorf("-stop-floor and -stop-budget require -adaptive")
	}
	if *stopFloor < 0 || *stopBudget < 0 {
		return fmt.Errorf("-stop-floor and -stop-budget must be >= 0 (got %d, %d)", *stopFloor, *stopBudget)
	}
	if *stopBudget > 0 && *stopFloor > *stopBudget {
		return fmt.Errorf("-stop-floor %d exceeds -stop-budget %d", *stopFloor, *stopBudget)
	}
	var policy *nullgraph.StopPolicy
	if *adaptive {
		var stat nullgraph.StopStatistic
		switch *stopStat {
		case "", "assortativity":
			stat = nullgraph.StopOnAssortativity
		case "triangles":
			stat = nullgraph.StopOnTriangles
		case "success-rate":
			stat = nullgraph.StopOnSuccessRate
		default:
			return fmt.Errorf("-stop-stat must be assortativity, triangles or success-rate (got %q)", *stopStat)
		}
		policy = &nullgraph.StopPolicy{Statistic: stat, Floor: *stopFloor, Budget: *stopBudget}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var cancelTime context.CancelFunc
		ctx, cancelTime = context.WithTimeout(ctx, *timeout)
		defer cancelTime()
	}

	if *pprofAddr != "" {
		addr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "edgeswap: pprof listening on http://%s/debug/pprof/\n", addr)
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer stop()
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	// The output file is written only after the mix succeeds, and file
	// saves are atomic (temp + fsync + rename via atomicfile), so an
	// interrupted run — graceful -timeout/SIGINT or a hard kill
	// mid-write — can never leave a truncated output behind.
	writeOut := func(write func(w io.Writer) error) error {
		if *out == "-" {
			return write(os.Stdout)
		}
		return atomicfile.Write(*out, write)
	}
	opt := nullgraph.Options{
		Space:           space,
		Connected:       *connected,
		Workers:         *workers,
		Seed:            *seed,
		SwapIterations:  *swaps,
		MixUntilSwapped: *mix,
		StopPolicy:      policy,
		CollectReport:   *report != "",
	}
	stopDesc := func(st *nullgraph.StopReport) string {
		if st == nil || st.Policy != "adaptive" {
			return ""
		}
		return fmt.Sprintf(" | adaptive stop: %s (%s)", st.Reason, st.Statistic)
	}

	if *directed {
		g, err := nullgraph.ReadDigraph(r)
		if err != nil {
			return err
		}
		before := g.CheckSimplicity()
		res, err := nullgraph.ShuffleDirectedContext(ctx, g, opt)
		if err != nil {
			return err
		}
		if err := writeOut(func(w io.Writer) error { return nullgraph.WriteDigraph(w, g) }); err != nil {
			return err
		}
		if *report != "" && res.Report != nil {
			if err := obs.WriteReportFile(*report, res.Report); err != nil {
				return err
			}
		}
		if !*quiet {
			after := g.CheckSimplicity()
			var total, success int64
			for _, s := range res.SwapIterations {
				total += s.Attempts
				success += s.Successes
			}
			fmt.Fprintf(os.Stderr,
				"edgeswap: arcs=%d | input loops=%d dup=%d -> output loops=%d dup=%d | %d/%d proposals committed over %d iterations%s\n",
				g.NumArcs(), before.SelfLoops, before.DuplicateArcs, after.SelfLoops, after.DuplicateArcs,
				success, total, len(res.SwapIterations), stopDesc(res.Stop))
		}
		return nil
	}

	// The default simple space reads any input (defects are simplified
	// before the chain runs); non-simple cells validate membership at
	// read time so a bad input fails before any work.
	read := func(rd io.Reader) (*nullgraph.Graph, error) { return nullgraph.ReadGraph(rd) }
	if space != nullgraph.SpaceSimple {
		read = func(rd io.Reader) (*nullgraph.Graph, error) { return nullgraph.ReadGraphInSpace(rd, space) }
	}
	g, err := read(r)
	if err != nil {
		return err
	}
	before := g.CheckSimplicity()
	res, err := nullgraph.ShuffleContext(ctx, g, opt)
	if err != nil {
		return err
	}
	if err := writeOut(func(w io.Writer) error {
		if *binary {
			return nullgraph.WriteGraphBinary(w, g)
		}
		return nullgraph.WriteGraph(w, g)
	}); err != nil {
		return err
	}
	if *report != "" && res.Report != nil {
		if err := obs.WriteReportFile(*report, res.Report); err != nil {
			return err
		}
	}
	if !*quiet {
		after := g.CheckSimplicity()
		var total, success int64
		for _, s := range res.SwapIterations {
			total += s.Attempts
			success += s.Successes
		}
		simplified := ""
		if res.Simplify != nil {
			simplified = fmt.Sprintf(" | simplified %d defects in %d swaps", res.Simplify.InitialDefects, res.Simplify.Swaps)
		}
		fmt.Fprintf(os.Stderr,
			"edgeswap: space=%s m=%d | input loops=%d multi=%d -> output loops=%d multi=%d | %d/%d proposals committed over %d iterations%s%s\n",
			space, g.NumEdges(), before.SelfLoops, before.MultiEdges, after.SelfLoops, after.MultiEdges,
			success, total, len(res.SwapIterations), simplified, stopDesc(res.Stop))
	}
	return nil
}
