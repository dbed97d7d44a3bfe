"""Repeat benchmark runs over several seeds and summarise them.

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --runs 1 --workloads sample-sq12 --trace 1

For each workload it runs ``run.py`` once per seed (``--first-seed``,
``--first-seed + 1``, ...), each run as long as ``run_seconds`` in
``BENCHMARK.json``, and prints, per metric, the median of the runs, their
quartiles and the quartile spread as a share of the median next to the
metric's bound in ``BENCHMARK.json``.  For ``pair_s`` it also pools the pair
times of all runs and reports the highest percentile with at least ten pairs
above it, and it shows the spread of the unscaled wall times as well; ``error_rate`` is pooled over all attempted pairs.  With
``--trace 1`` it prints each layer's time as a share of the traced ``pair_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, highest_percentile
from workloads import WORKLOADS

# per-pair layer times that add up to the traced pair_s, with their factor
LAYER_TIMES = {
    "secfold.fold_s": 1, "grammar_inside.inside_self_s": 1, "secfold.outside_s": 1,
    "outside_prob.outside_self_s": 1, "outside_prob.aggregate_s": 1,
    "secfold.sample_s": 1, "sampler.draw_self_s": "draws",
}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[float]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    times, wall = [], {}
    for line in lines:
        if line.startswith("pair_times "):
            times = json.loads(line.split(" ", 1)[1])
        if line.startswith("wall "):
            wall = json.loads(line.split(" ", 1)[1])
        if line.startswith("FAILED "):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1]), times, wall


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (Q3 - Q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        runs, pooled, walls = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, times, wall = one_run(workload, seed, seconds, args.trace)
            runs.append(result)
            pooled += times
            walls.append(wall)
            values = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
                              if args.trace == 0)
            print(f"  {workload} seed {seed}: attempted {result['attempted']}"
                  f" failed {result['failed']} {values}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs of {seconds:g} s")
        for name, m in runs[0]["metrics"].items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"  bound {bound:g}  {'ok' if rel < bound / 3 else 'WIDE'}")
            print(f"  {name:36s} {med:12.6g} {m['unit']:6s} Q1 {q1:.6g} Q3 {q3:.6g}"
                  f" spread {rel:.4f}{verdict}")
            if args.trace and name in LAYER_TIMES:
                factor = LAYER_TIMES[name]
                per_pair = med * (WORKLOADS[workload].draws if factor == "draws" else factor)
                pair = statistics.median(r["metrics"]["trace.pair_s"]["value"] for r in runs)
                print(f"  {'':36s} share of traced pair_s {per_pair / pair:.3f}")
        for name in walls[0]:
            med, q1, q3, rel = spread([w[name] for w in walls])
            print(f"  {'unscaled ' + name:36s} {med:12.6g} s      Q1 {q1:.6g} Q3 {q3:.6g}"
                  f" spread {rel:.4f}")
        if pooled:
            tail = highest_percentile(pooled)
            tail_text = f"p{tail[0]:g} {tail[1]:.6g} s" if tail else "no tail percentile"
            print(f"  pair_s pooled: {len(pooled)} pairs, median "
                  f"{statistics.median(pooled):.6g} s, {tail_text}")
        print(f"  {'error_rate':36s} {failed / attempted:12.6g} 1      "
              f"({failed} failed of {attempted} attempted)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
