# Developer entry points. CI (.github/workflows/ci.yml) runs `verify`,
# `bench-compile`, `bench-smoke`, `race`, and `lint`; `bench-swap`
# tracks the hot path's allocation budget and `bench-gen` the
# session-reuse allocation budget.

GO ?= go

.PHONY: verify build vet test bench-compile bench-smoke test-stat race race-serve lint lint-fix-schemas fuzz-smoke bench-swap bench-gen bench-all bench-check smoke-serve clean

# verify is the tier-1 gate: everything compiles, vets clean, every
# test passes, and the benchmark module still builds against the API.
verify: build vet test bench-compile

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench-compile vets and tests the perfbench module (a separate module
# that calls internal swap, permute and directed API), so an API change
# that breaks the benchmark fails here instead of at benchmark time.
bench-compile:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench-smoke runs every perfbench workload for 2 s untraced, and
# gen-skewed once more traced, and fails unless each run's last stdout
# line is JSON with "correct": true. perfbench exits 0 even when
# operations failed, so its exit code alone proves nothing; this catches
# a change that passes `go test` but cannot run or verify the benchmark.
BENCH_SMOKE_RUNS = "gen-skewed 0" "directed-shuffle 0" "connected-sparse 0" "serve-churn 0" "gen-skewed 1"

bench-smoke:
	@for run in $(BENCH_SMOKE_RUNS); do \
		set -- $$run; \
		echo "bench-smoke: $$1 --trace $$2"; \
		out=$$(python3 perfbench/run.py --workload $$1 --seed 1 --seconds 2 --trace $$2) || exit 1; \
		printf '%s\n' "$$out" | tail -n 1 | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r.get("correct") is True else "bench-smoke: result not correct: %s" % r)' \
			|| exit 1; \
	done

# test-stat runs the tier-2 statistical verification suite
# (internal/statcheck) at its documented default budgets: exact-
# enumeration uniformity for the swap chains, Bernoulli marginals for
# edge-skipping, expected-degree moments for probgen. A few seconds of
# sampling; `go test -short` skips these, plain `go test` includes
# them. Nightly CI runs the same checks at larger budgets via
# cmd/statcheck (see .github/workflows/nightly.yml and DESIGN.md §11).
test-stat:
	$(GO) test -run 'TestStatcheck' -v ./internal/statcheck/...

# race runs the whole module under the race detector (shortened
# statistical tests). Packages without cross-goroutine protocols cost
# little here, and whole-module coverage means a new concurrent package
# can't silently dodge the detector by not being on a list.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/connected

# race-serve re-runs the service and convergence layers' full (un-short)
# tests under the race detector: these two packages carry the module's
# cross-goroutine protocols (engine pool leases, admission gate,
# checkpoint monitors), and -short skips some of their heavier
# concurrency tests.
race-serve:
	$(GO) test -race ./internal/serve ./internal/converge

# lint runs the repo's own analyzer suite (cmd/nullvet: rngshare,
# hotpathalloc, stoppoll, atomicalign, errpropagate, fingerprintcomplete,
# schemaver, goroutinejoin, ctxflow — see DESIGN.md §10 and §15) with the
# committed known-debt baseline, a gofmt check of every tracked Go file
# (git ls-files, so build output such as .bench_build/ is not scanned),
# plus staticcheck when installed.
# staticcheck and govulncheck are not vendored; CI installs pinned
# versions, and locally the steps are skipped with a notice when the
# binaries are absent.
lint:
	$(GO) run ./cmd/nullvet -baseline .nullvet-baseline ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it)"; \
	fi

# lint-fix-schemas regenerates internal/analysis/schemas.lock from the
# //nullgraph:schema structs. Run it (and commit the diff) after a
# deliberate report-schema change — the schemaver analyzer fails `lint`
# until the version constant and the lock move together.
lint-fix-schemas:
	$(GO) run ./cmd/nullvet -update-schemas

# fuzz-smoke gives each fuzz target a short randomized burst on top of
# its checked-in seed corpus; CI runs it so the harnesses themselves
# can't rot.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeListBinary -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeListText -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzConnectedSeed -fuzztime=10s ./internal/connected
	$(GO) test -run='^$$' -fuzz=FuzzCheckerChain -fuzztime=10s ./internal/connected
	$(GO) test -run='^$$' -fuzz=FuzzTestAndSetPairs -fuzztime=10s ./internal/hashtable

# bench-swap emits BENCH_swap.json: ns/op, allocs/op, B/op and
# swaps/sec for one engine Step on a 1M-edge graph. The hot path's
# budget is ~0 allocs/op; see DESIGN.md.
bench-swap:
	$(GO) run ./cmd/benchswap

# bench-gen emits BENCH_generate.json: cold one-shot Generate vs reused
# Engine.Generate (ns/op, allocs/op, B/op) and their byte ratio. The
# session contract is reuse_bytes_ratio <= 0.10; see DESIGN.md §9.
bench-gen:
	$(GO) run ./cmd/benchgen

# bench-all regenerates both committed baselines in place. Run it (and
# commit the diff) after a deliberate perf change so bench-check keeps
# gating against current numbers.
bench-all: bench-swap bench-gen

# bench-check measures fresh *.head.json files and gates them against
# the committed baselines with cmd/benchcheck: ns/op within ±15%, a
# hard zero-allocation gate on the swap Step, and the reuse-bytes
# session contract. This is the CI bench-regression job's entry point.
bench-check:
	$(GO) run ./cmd/benchswap -o BENCH_swap.head.json
	$(GO) run ./cmd/benchgen -o BENCH_generate.head.json
	$(GO) run ./cmd/benchcheck \
		-swap-baseline BENCH_swap.json -swap BENCH_swap.head.json \
		-gen-baseline BENCH_generate.json -gen BENCH_generate.head.json

# smoke-serve is the serving smoke gate (DESIGN.md §13): start
# nullgraphd sized for the load, fire 200 requests at concurrency 16
# with loadgen, and gate the emitted BENCH_serve.json with benchcheck's
# absolute -serve gate (zero non-2xx, zero deadline misses, zero
# payload verification failures). A second pass gives every request its
# own seed, so every request needs an engine of a new shape; it is
# gated the same way, and /metrics must then show no more idle engines
# than the 16 admission slots. The server is always torn down, and its
# log surfaces on failure.
smoke-serve:
	$(GO) build -o nullgraphd.smoke ./cmd/nullgraphd
	./nullgraphd.smoke -addr 127.0.0.1:18080 -max-concurrent 16 -max-queue 64 \
		>nullgraphd.smoke.log 2>&1 & echo $$! > nullgraphd.smoke.pid
	sleep 1
	$(GO) run ./cmd/loadgen -url http://127.0.0.1:18080 \
		-requests 200 -concurrency 16 -o BENCH_serve.json \
		|| { cat nullgraphd.smoke.log; kill `cat nullgraphd.smoke.pid`; exit 1; }
	curl -sf http://127.0.0.1:18080/metrics | grep -E 'nullgraphd_(phase_seconds|stop_decisions)_total' \
		|| { echo "smoke-serve: /metrics missing RunReport series"; kill `cat nullgraphd.smoke.pid`; exit 1; }
	$(GO) run ./cmd/loadgen -url http://127.0.0.1:18080 \
		-keys 200 -requests 200 -concurrency 16 -o BENCH_serve_churn.json \
		|| { cat nullgraphd.smoke.log; kill `cat nullgraphd.smoke.pid`; exit 1; }
	idle=`curl -sf http://127.0.0.1:18080/metrics | sed -n 's/^nullgraphd_pool_idle_engines //p'`; \
	[ -n "$$idle" ] && [ "$$idle" -le 16 ] \
		|| { echo "smoke-serve: $$idle idle engines after shape churn, want <= 16"; kill `cat nullgraphd.smoke.pid`; exit 1; }
	kill `cat nullgraphd.smoke.pid`
	$(GO) run ./cmd/benchcheck -serve BENCH_serve.json
	$(GO) run ./cmd/benchcheck -serve BENCH_serve_churn.json
	rm -f nullgraphd.smoke nullgraphd.smoke.pid

# clean removes only derived measurement files; BENCH_swap.json and
# BENCH_generate.json are committed baselines, not build products.
clean:
	rm -f BENCH_swap.head.json BENCH_generate.head.json \
		BENCH_serve.json BENCH_serve_churn.json \
		nullgraphd.smoke nullgraphd.smoke.pid nullgraphd.smoke.log
