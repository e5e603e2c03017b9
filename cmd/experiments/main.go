// Command experiments regenerates the paper's tables and figures on the
// synthetic Table I analogs and prints the rows/series each one plots.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig4 -trials 5 -iters 24
//	experiments -exp table1 -max-vertices 500000
//
// Experiments: table1, fig1, fig2, fig3, fig4, fig5, fig6, swapscale,
// uniformity, ablation, mixingtime, connected, all. The output opens
// with one provenance line: commit, CPU model, GOMAXPROCS, Go version
// and the command line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nullgraph/internal/experiments"
	"nullgraph/internal/obs"
)

func main() { os.Exit(realMain()) }

// realMain holds main's body so deferred cleanup (the CPU-profile
// flush) runs before the process exits.
func realMain() int {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|fig1|fig2|fig3|fig4|fig5|fig6|swapscale|uniformity|ablation|mixingtime|connected|all")
		workers    = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed       = flag.Uint64("seed", 1, "random seed")
		maxVerts   = flag.Int64("max-vertices", 0, "dataset analog size cap (0 = package default of 150k)")
		trials     = flag.Int("trials", 0, "trials per stochastic measurement (0 = default 3)")
		iters      = flag.Int("iters", 0, "swap-iteration axis length for fig4 (0 = default 16)")
		skewed     = flag.Bool("skewed-only", false, "restrict dataset sweeps to the four skewed instances")
		datasets   = flag.String("datasets", "", "comma-separated Table I names to restrict sweeps to")
		reportPath = flag.String("report", "", "also write a chain-health RunReport (JSON) of one instrumented pipeline run to this path")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		timeout    = flag.Duration("timeout", 0, "abort with an error if the run exceeds this (e.g. 10m; 0 = no limit)")
	)
	flag.Parse()

	// Experiment sweeps drive many pipeline runs back to back; -timeout
	// is a hard watchdog over the whole sweep.
	if *timeout > 0 {
		time.AfterFunc(*timeout, func() {
			fmt.Fprintln(os.Stderr, "experiments: -timeout exceeded, aborting")
			os.Exit(1)
		})
	}

	if *pprofAddr != "" {
		addr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "experiments: pprof listening on http://%s/debug/pprof/\n", addr)
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer stop()
	}

	cfg := experiments.Config{
		Workers:        *workers,
		Seed:           *seed,
		MaxVertices:    *maxVerts,
		Trials:         *trials,
		SwapIterations: *iters,
		SkewedOnly:     *skewed,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	w := os.Stdout
	fmt.Fprintln(w, experiments.Provenance(os.Args))
	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "swapscale", "uniformity", "ablation", "mixingtime", "connected"}
	}
	for _, name := range names {
		if err := run(name, cfg, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			return 1
		}
	}
	if *reportPath != "" {
		rep, err := experiments.CollectRunReport(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		if err := obs.WriteReportFile(*reportPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}
	return 0
}

func run(name string, cfg experiments.Config, w io.Writer) error {
	type renderer interface{ Render(io.Writer) }
	var (
		res renderer
		err error
	)
	switch name {
	case "table1":
		res, err = experiments.RunTable1(cfg)
	case "fig1":
		res, err = experiments.RunFig1(cfg)
	case "fig2":
		res, err = experiments.RunFig2(cfg)
	case "fig3":
		res, err = experiments.RunFig3(cfg)
	case "fig4":
		res, err = experiments.RunFig4(cfg)
	case "fig5":
		res, err = experiments.RunFig5(cfg)
	case "fig6":
		res, err = experiments.RunFig6(cfg)
	case "swapscale":
		res, err = experiments.RunSwapScale(cfg)
	case "uniformity":
		res, err = experiments.RunUniformity(cfg)
	case "ablation":
		res, err = experiments.RunAblation(cfg)
	case "mixingtime":
		res, err = experiments.RunMixingTime(cfg)
	case "connected":
		res, err = experiments.RunConnected(cfg)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}
