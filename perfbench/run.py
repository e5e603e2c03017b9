#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload gen-skewed --seed 1 --seconds 24 --trace 0

Builds the Go benchmark (a module of its own that uses the repository
through a replace directive) into the build directory, then runs it. The
build directory is $CARGO_TARGET_DIR when set, else .bench_build, and is
resolved against the checkout root; the Go build and module caches live
inside it too, so nothing outside the checkout is written. The last line
of standard output is the benchmark's JSON result. With --trace 1 the
spans are written to <build dir>/traces/<workload>-<seed>.json.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175  # the whole invocation, build included, ends before this


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def go_env(bdir):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(bdir, "gocache"),
        GOPATH=os.path.join(bdir, "gopath"),
        GOMODCACHE=os.path.join(bdir, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(bdir, "tmp"),
        HOME=os.path.join(bdir, "home"),
        XDG_CONFIG_HOME=os.path.join(bdir, "home", ".config"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for k in ("GOTMPDIR", "HOME"):
        os.makedirs(env[k], exist_ok=True)
    return env


def find_go():
    for cand in (shutil.which("go"), "/usr/local/go/bin/go", "/usr/lib/go/bin/go"):
        if cand and os.path.exists(cand):
            return cand
    return None


def source_id():
    """Names the code measured: the git commit when there is one, else a
    hash of the Go sources (an exported source tree has no .git)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    go = find_go()
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    env = go_env(bdir)
    binary = os.path.join(bdir, "perfbench")
    try:
        built = subprocess.run([go, "build", "-trimpath", "-o", binary, "."], cwd=HERE, env=env,
                               timeout=DEADLINE_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["-trace-out", os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    run_env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=run_env)
    try:
        return proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % DEADLINE_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
