#!/usr/bin/env python3
"""Builds and runs one GUESSTIMATE benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sudoku_paper --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload in its own process, and prints
the workload's table followed, as the last line, by one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the `end_to_end` metrics of BENCHMARK.json, with `--trace 1` the
`per_layer` ones. Every run also appends a row with the seed, the host
fingerprint and all metrics to `.bench_results/rows.jsonl`.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "cpu": model, "rustc": rustc}


def build(env):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
    )
    if r.returncode != 0:
        fail("build failed")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    listed = [w["name"] for w in bench["workloads"]]
    if a.workload not in listed:
        fail(f"unknown workload {a.workload}; one of {listed}")
    wanted = [m["name"] for m in bench["end_to_end" if a.trace == 0 else "per_layer"]]

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    exe = os.path.join(ROOT, target, "release", "perfbench")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{a.workload} exited with code {r.returncode}")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        fail(f"{a.workload} did not report {missing}")
    metrics = {n: metrics[n] for n in wanted}

    host = host_fingerprint()
    row = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "host": host,
        **result,
    }
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows.jsonl"), "a") as f:
        f.write(json.dumps(row) + "\n")

    for line in lines[:-1]:
        print(line)
    print(f"# host nproc={host['nproc']} cpu={host['cpu']!r} rustc={host['rustc']!r}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
