#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

One workload, one process, one JSON result as the last line of stdout:

    python3 benchmark/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Steadiness mode runs every workload N times, alternating between them,
with seeds SEED, SEED+1, ... and prints each metric's median, quartiles
and quartile spread as a share of the median:

    python3 benchmark/run.py --repeat 10 --seed 1 --seconds 20 [--trace 0]

--seconds is required: the bounds in BENCHMARK.json hold for its
run_seconds (20) only.

The build is `dune build` of the benchmark and the mobisim daemon it
drives; its output goes to stderr. Exit code 2 means the build or the
arguments failed, 1 that a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_EXE = os.path.join("_build", "default", "benchmark", "bench.exe")
MOBISIM_EXE = os.path.join("_build", "default", "bin", "mobisim.exe")
WORKLOADS = ["paper_sweep", "bigk_steady", "service_mixed"]


def build():
    if not os.path.exists("dune-project"):
        print("run.py: no dune-project here; run from the repository root",
              file=sys.stderr)
        return False
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./benchmark/bench.exe",
             "./bin/mobisim.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(BENCH_EXE)


def run_once(workload, seed, seconds, trace):
    """Run one workload; return (exit code, result dict or None)."""
    done = subprocess.run(
        [BENCH_EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--mobisim", MOBISIM_EXE, "--state-dir", ".bench_build"],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return done.returncode, result, done.stdout


def repeat(args):
    values = {w: {} for w in WORKLOADS}
    shares = {w: [] for w in WORKLOADS}
    for i in range(args.repeat):
        for w in WORKLOADS:
            code, result, _ = run_once(w, args.seed + i, args.seconds,
                                       args.trace)
            if result is None or not result["correct"]:
                print(f"{w} seed {args.seed + i}: run failed (exit {code})",
                      file=sys.stderr)
                return 1
            shares[w].append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {args.seed + i}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
    for w in WORKLOADS:
        print(f"{w}: {args.repeat} runs, failed share {sorted(set(shares[w]))}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/median':>10}")
        for name, vals in values[w].items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:10.4f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()
    if not build():
        return 2
    if args.repeat > 0:
        return repeat(args)
    if args.workload is None:
        p.print_usage(sys.stderr)
        return 2
    code, result, stdout = run_once(args.workload, args.seed, args.seconds,
                                    args.trace)
    sys.stdout.write(stdout)
    if result is None:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
