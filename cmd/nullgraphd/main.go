// Command nullgraphd serves null-model graph generation over HTTP: a
// long-running, multi-tenant front end over pooled nullgraph.Engine
// sessions (internal/serve). Requests POST a degree distribution and
// stream back a generated edge list; identical (distribution, options)
// requests draw distinct samples of one deterministic batch, and warm
// engines are reused across every request with the same options
// (at most one idle engine per generation slot is kept).
//
//	nullgraphd -addr :8080 &
//	curl -s -X POST --data-binary @dist.txt \
//	    'localhost:8080/v1/generate?seed=42&swaps=10' -o graph.bin
//
// Endpoints:
//
//	POST /v1/generate  — body: "degree count" lines; query: seed, swaps,
//	                     stop (mixed|assortativity|triangles|success-rate),
//	                     refine, format (binary|text), deadline_ms;
//	                     response: binary (default) or text edge list.
//	GET  /metrics      — Prometheus text: request/latency counters plus
//	                     RunReport v2 per-phase wall time and stop
//	                     decisions (DESIGN.md §13).
//	GET  /healthz      — liveness.
//
// Responses carry X-Nullgraph-Seed / -Sample / -Stop-Reason /
// -Swap-Iterations / -Vertices / -Edges headers; any sample can be
// reproduced offline with nullgen and Options.Seed =
// SampleSeed(seed, sample).
//
// Overload is explicit, never silent: beyond -max-concurrent running
// requests and -max-queue waiters the server answers 429, and a
// request whose deadline expires — queued or mid-generation — gets 504
// with the partial sample discarded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nullgraph/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 1, "parallel width of each pooled engine (1 = deterministic per sample)")
		maxConcurrent = flag.Int("max-concurrent", 0, "generation slots, and the cap on idle pooled engines (0 = GOMAXPROCS)")
		maxQueue      = flag.Int("max-queue", 0, "queued requests beyond the slots before 429 (0 = 4x slots)")
		deadline      = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDeadline   = flag.Duration("max-deadline", 5*time.Minute, "cap on client-requested deadlines")
		seed          = flag.Uint64("seed", 0, "base seed for requests that send none")
	)
	flag.Parse()

	s := serve.New(serve.Config{
		Workers:         *workers,
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		Seed:            *seed,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "nullgraphd: listening on %s\n", *addr)

	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight requests finish
		// within the default deadline, then release the engine pool.
		fmt.Fprintln(os.Stderr, "nullgraphd: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), *deadline)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "nullgraphd: shutdown:", err)
		}
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nullgraphd: close:", err)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "nullgraphd:", err)
			os.Exit(1)
		}
	}
}
