#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload diurnal_day --seed 1 --seconds 20 --trace 0

Run all three workloads, untraced then traced, and print every result:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Check that two same-seed runs agree on every sim-time value and count:

    python3 perfbench/run.py --determinism --seed 1 --seconds 5

Say whether two saved outputs were measured under comparable configs:

    python3 perfbench/run.py --compare a.txt b.txt

The benchmark is built from source first, with `cargo build --release
--offline` into `$CARGO_TARGET_DIR` (default `.bench_build`). Run it from
the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["diurnal_day", "scale_in_out", "kv_concurrent"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
# Report lines carrying this tag must be byte-identical for one seed.
DETERMINISTIC_TAG = "(sim, deterministic)"


def target_dir():
    return os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    binary = os.path.join(target_dir(), "release", "elmem-perfbench")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return binary if os.path.isfile(binary) else None


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: {workload} timed out after {e.timeout} s", file=sys.stderr)
        return 1, ""
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return done.returncode, done.stdout


def result_of(text):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def deterministic_lines(text):
    return [line for line in text.splitlines() if DETERMINISTIC_TAG in line]


def config_of(path):
    with open(path) as f:
        for line in f:
            if line.startswith("config "):
                return json.loads(line[len("config "):])
    return None


def compare(a, b):
    ca, cb = config_of(a), config_of(b)
    if ca is None or cb is None:
        print("run.py: no config line in one of the outputs", file=sys.stderr)
        return 2
    if ca["comparable"] == cb["comparable"]:
        print(f"comparable: both measured {ca['workload']} under config {ca['comparable']}")
        return 0
    print(f"NOT comparable: configs {ca['comparable']} and {cb['comparable']} differ:")
    for key in sorted(set(ca) | set(cb)):
        if key not in ("seed", "trace", "seconds", "comparable") and ca.get(key) != cb.get(key):
            print(f"  {key}: {ca.get(key)} vs {cb.get(key)}")
    return 1


def determinism(binary, seeds, seconds):
    ok = True
    for workload in WORKLOADS:
        for seed in seeds:
            outs = []
            for _ in range(2):
                code, text = run_one(binary, workload, seed, seconds, 0, echo=False)
                if code != 0:
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    return 1
                outs.append((result_of(text), deterministic_lines(text)))
            (ra, la), (rb, lb) = outs
            same = la == lb and bool(la)
            if workload == "diurnal_day":
                same &= (ra["attempted"], ra["failed"]) == (rb["attempted"], rb["failed"])
                same &= ra["metrics"]["hit_ratio"] == rb["metrics"]["hit_ratio"]
            if workload == "scale_in_out":
                same &= ra["metrics"]["hit_ratio"] == rb["metrics"]["hit_ratio"]
            print(f"{workload} seed {seed}: {'identical' if same else 'DIFFERENT'} "
                  f"({len(la)} deterministic values)")
            for line in la:
                print(f"  {line.strip()}")
            ok &= same
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=None)
    p.add_argument("--determinism", action="store_true",
                   help="run every workload twice per seed and compare sim-time values and counts")
    p.add_argument("--held-out-seed", type=int, default=None,
                   help="with --determinism, also check this second seed")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="say whether two saved outputs are comparable")
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    binary = build()
    if binary is None:
        return 1
    if args.determinism:
        seeds = [args.seed] + ([args.held_out_seed] if args.held_out_seed is not None else [])
        return determinism(binary, seeds, args.seconds)
    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args.seed, args.seconds,
                          0 if args.trace is None else args.trace)
        return code
    failed = 0
    traces = [0, 1] if args.trace is None else [args.trace]
    for workload in WORKLOADS:
        for trace in traces:
            print(f"== {workload} trace={trace}", flush=True)
            code, text = run_one(binary, workload, args.seed, args.seconds, trace)
            result = result_of(text)
            if code != 0 or result is None or not result.get("correct"):
                failed += 1
    print(f"== {3 * len(traces) - failed} of {3 * len(traces)} runs correct")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
