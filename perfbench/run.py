"""jointfold benchmark: one workload run, printed as metrics with units.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pf-sq24 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off.
Times are wall times scaled to a reference machine speed by calibrations
around each timed call (see ``workloads.calibrate``); the unscaled medians
are printed as well.

- ``setup_s``: median time of fresh interpreters that each run
  ``import jointfold`` and ``default_model()``, the cost every CLI call pays
  (one is launched after each pair);
- ``pair_s``: median time to take one pair through the pipeline;
- ``pairs_per_s``: pairs completed per second of timed time;
- ``peak_rss_mb``: ``ru_maxrss`` of this process, which is fresh for every
  run and runs the pairs itself.

With ``--trace 1`` it reports the per-layer metrics of a traced run instead
(see ``workloads.layer_metrics``).  Each pair's outputs are checked; a pair
that raises or fails a check counts as failed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 2, with no result printed, when the checkout
holds no jointfold sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
UNITS = {"setup_s": "s", "pair_s": "s", "pairs_per_s": "1/s", "peak_rss_mb": "MB"}


def highest_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of PERCENTILES with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in PERCENTILES:
        i = int(pct / 100.0 * n)
        if n - 1 - i >= 10:
            return pct, ordered[i]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="jointfold benchmark, one workload run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jointfold" / "__init__.py").is_file():
        print(f"error: no jointfold sources under {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    model = workloads.jf.default_model()
    result = workloads.run(workloads.WORKLOADS[args.workload], model, args.seed,
                           args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    times, setup = result["pair_times"], result["setup_times"]
    pair_scaled, setup_scaled = result["pair_scaled"], result["setup_scaled"]
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  (one process, one pair at a time)")
    for line in result["errors"][:10]:
        print(f"FAILED {line}")
    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "pair_s": statistics.median(pair_scaled),
            "pairs_per_s": (attempted - failed) / sum(pair_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        tail = highest_percentile(pair_scaled)
        tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                     else "no percentile has 10 pairs above it")
        print(f"setup_s samples {len(setup)}; pair_s samples {len(times)}; {tail_text}")
        print(f"unscaled wall time: setup_s {statistics.median(setup):.4f} s,"
              f" pair_s {statistics.median(times):.4f} s,"
              f" pairs_per_s {(attempted - failed) / sum(times):.4f} 1/s")
        print("pair_times " + json.dumps(pair_scaled))
        print("wall " + json.dumps({"setup_s": statistics.median(setup),
                                    "pair_s": statistics.median(times)}))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':36s} {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
