#!/usr/bin/env python3
"""Builds the wrsn benchmark from source and runs it.

One workload (the form a harness calls; the last stdout line is the
result object):

    python3 perfbench/run.py --workload solve-paper --seed 7 --seconds 40 --trace 0

Every workload, untraced and then traced, with a readable report of each
end-to-end metric, each per-layer metric next to the end-to-end metric it
should move, and the tracing overhead (traced minus untraced):

    python3 perfbench/run.py --all --seed 7 --seconds 40

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR,
or to .bench_build when that is unset. Exits nonzero when the build
fails, a run fails, or any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["solve-paper", "serve-hot", "serve-cold"]
RUN_TIMEOUT_S = 170

# Per-layer metric -> (workload it is attributed on, end-to-end metrics it
# should move there). Kept in step with README.md.
LAYER_MAP = {
    "core.instance_build_ms": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "solver.irfh.solve_ms": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "solver.idb.solve_ms": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "solver.sched-bilevel.solve_ms": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "graph.dijkstra_to_us": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "core.eval_set_deployment_us": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "core.eval_probe_add_us": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "core.optimal_cost_us": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "engine.run_overhead_ms": ("solve-paper", "throughput_per_s, latency_p50_ms"),
    "serve.http_parse_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "serve.decode_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "engine.fingerprint_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "store.get_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "serve.solve_in_hit_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "serve.encode_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "serve.response_bytes_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "serve.server_mean_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "serve.transport_us": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "serve.cache_hit_ratio": ("serve-hot", "throughput_per_s, latency_p50_ms"),
    "serve.solve_in_miss_us": ("serve-cold", "latency_p50_ms, latency_p99_ms, slo_attainment"),
    "store.put_us": ("serve-cold", "latency_p50_ms, latency_p99_ms, slo_attainment"),
    "store.appended": ("serve-cold", "latency_p50_ms, latency_p99_ms, slo_attainment"),
    "store.segments": ("serve-cold", "latency_p50_ms, latency_p99_ms, slo_attainment"),
    "serve.server_p99_us": ("serve-cold", "latency_p99_ms, slo_attainment"),
}


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        built = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            check=False,
        )
    except OSError as e:
        sys.exit(f"run.py: cannot run cargo: {e}")
    if built.returncode != 0:
        sys.exit(f"run.py: build failed (exit {built.returncode})")
    return os.path.join(target, "release", "wrsn-perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs one workload; returns (exit code, context, result)."""
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, {}, None
    if echo:
        sys.stdout.write(done.stdout)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if lines and done.returncode == 0 else None
    context = {}
    if len(lines) >= 2 and lines[-2].startswith('{"context"'):
        context = json.loads(lines[-2])["context"]
    return done.returncode, context, result


def report_all(binary, seed, seconds):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for workload in WORKLOADS:
        code0, ctx0, untraced = run_once(binary, workload, seed, seconds, 0, False)
        code1, ctx1, traced = run_once(binary, workload, seed, seconds, 1, False)
        print(f"== {workload} (seed {seed}, {seconds} s)")
        if untraced is None or traced is None:
            print(f"   FAILED (exit {code0} untraced, {code1} traced)")
            failed = True
            continue
        ok = untraced["correct"] and traced["correct"]
        failed |= not ok
        print(f"   correct: {ok}; attempted {untraced['attempted']}, failed {untraced['failed']}, "
              f"error_rate {untraced['failed'] / untraced['attempted']:.6f}")
        probe = ctx0.get("host_probe_ms_start", {}).get("value")
        print(f"   host probe: {probe:.1f} ms" if probe else "   host probe: n/a")
        print(f"   {'end-to-end metric':<22}{'untraced':>14}{'traced':>14}{'overhead':>11}  unit")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            value = untraced["metrics"][name]["value"]
            with_trace = ctx1.get(name, {}).get("value")
            overhead = ""
            if with_trace is not None and value:
                overhead = f"{100 * (with_trace - value) / value:+.1f}%"
            shown = f"{with_trace:.6g}" if with_trace is not None else "n/a"
            print(f"   {name:<22}{value:>14.6g}{shown:>14}{overhead:>11}  {metric['unit']}"
                  f" ({metric['better']} is better)")
        print(f"   {'per-layer metric':<32}{'value':>12}  unit   moves (on workload)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            value = traced["metrics"][name]["value"]
            where, moves = LAYER_MAP.get(name, ("", ""))
            shown = f"{value:.6g}" if value is not None else "n/a"
            print(f"   {name:<32}{shown:>12}  {metric['unit']:<6} {moves} ({where})")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, and report")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    binary = build()
    if args.all:
        return report_all(binary, args.seed, args.seconds)
    code, _, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
