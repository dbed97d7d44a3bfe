"""Alternating parent/change runs of the jointfold benchmark.

    python3 tools/ab_bench.py --parent ../parent --change . \
        --workloads sample-sq12 --seeds 101-110 --out BENCH_11.json

For each workload and seed it runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once from the root of each tree, each run in a fresh
process with the tree as its working directory; odd seeds run the parent
first, even seeds the change first.  It prints each pair's end-to-end
metrics, then per workload and metric the median, quartiles and quartile
spread ``(Q3 - Q1) / median`` of each side, the change's median as a share
of the parent's, and the number of seeds whose change run beat the parent
run of the same seed.  ``--out`` writes the record in the layout of the
``BENCH_*.json`` files: the summary per workload and every run's JSON line.

The run length T (``run_seconds``) and the direction ("better") and bound
of each metric come from ``BENCHMARK.json`` in the change tree.  The script
only reads ``perfbench/`` and ``BENCHMARK.json``; the quartiles are those of
``perfbench/repeat.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from repeat import spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    """``"101-105,110"`` -> [101, 102, 103, 104, 105, 110]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def rounded_spread(values: list[float]) -> dict:
    """Median, quartiles and (Q3 - Q1) / median, rounded for the record."""
    med, q1, q3, rel = spread(values)
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round(rel, 4)}


def one_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``perfbench/run.py`` run from ``root``, as JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{root}: {workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], seeds: list[int], spec: dict) -> dict:
    """The summary of one workload's runs, keyed like ``BENCH_*.json``."""
    by = {(r["side"], r["seed"]): r["json"] for r in runs}
    sides = ("parent", "change")
    out = {
        "seeds": seeds,
        "failed": {s: sum(by[s, k]["failed"] for k in seeds) for s in sides},
        "attempted": {s: sum(by[s, k]["attempted"] for k in seeds) for s in sides},
        "correct": {s: all(by[s, k]["correct"] for k in seeds) for s in sides},
    }
    for metric, (better, bound) in spec.items():
        values = {s: [by[s, k]["metrics"][metric]["value"] for k in seeds] for s in sides}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = (statistics.median(values[s]) for s in sides)
        out[metric] = {
            "parent": rounded_spread(values["parent"]),
            "change": rounded_spread(values["change"]),
            "change_better_in": f"{wins}/{len(seeds)}",
            "median_change": round(change / parent - 1, 4),
            "bound": bound,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110 or 1,3,5")
    ap.add_argument("--out", type=Path, default=None, help="write the record here")
    ap.add_argument("--parent-label", default="parent", help="the record's 'parent' field")
    ap.add_argument("--change-label", default="change", help="the record's 'change' field")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    spec = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, summary = [], {}
    for workload in args.workloads.split(","):
        wl_runs = []
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result = one_run(roots[side], workload, seed, seconds)
                wl_runs.append({"side": side, "workload": workload, "seed": seed,
                                "json": result})
            by = {r["side"]: r["json"]["metrics"] for r in wl_runs[-2:]}
            print(f"{workload} seed {seed} ({order[0]} first): " + "  ".join(
                f"{m} {by['parent'][m]['value']:.6g} -> {by['change'][m]['value']:.6g}"
                for m in spec), flush=True)
        summary[workload] = summarise(wl_runs, args.seeds, spec)
        runs += wl_runs
        s = summary[workload]
        print(f"{workload}: failed {s['failed']}, correct {s['correct']}")
        for metric in spec:
            m = s[metric]
            print(f"  {metric:12s} parent {m['parent']['median']:.6g}"
                  f" [{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}]"
                  f" spread {m['parent']['spread']:.4f} | change {m['change']['median']:.6g}"
                  f" [{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]"
                  f" spread {m['change']['spread']:.4f} | median {m['median_change']:+.2%},"
                  f" change better in {m['change_better_in']}", flush=True)
    if args.out:
        record = {
            "what": "perfbench/run.py JSON lines for the parent and the change, with medians,"
                    " quartiles and quartile spreads ((Q3 - Q1) / median) per side;"
                    " change_better_in counts the seeds whose change run beat the parent"
                    " run of the same seed.",
            "parent": args.parent_label,
            "change": args.change_label,
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                       " --trace 0, run from the root of each tree",
            "order": "per workload, seed by seed; odd seeds run parent first, even seeds"
                     " change first",
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
