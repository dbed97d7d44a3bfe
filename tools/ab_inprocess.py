"""Time the base-pair path of two source trees on the same pairs, in one process.

    python3 tools/ab_inprocess.py --parent ../parent --change . \
        --sizes 20x20,8x48 --pairs 10

Each tree's ``src/jointfold`` is imported under its own package name
(``jointfold_parent``, ``jointfold_change``), so both trees run in one
interpreter, on the same warm numpy and in the same phase of the machine.
Pair ``k`` of a size ``NxM`` is a random ACGU pair drawn from ``--seed`` and
``k`` (query R of N nt, target S of M nt read 5'->3'), with each tree's
``default_model()``.  Both trees take it through the base-pair path:
``inside`` -> ``outside`` -> reading ``bpp_r``, ``bpp_s`` and ``bpp_ext``.

Pair 0 warms both trees up and is not recorded; then odd pairs run the
parent first and even pairs the change first.  The timed region ends once the
three arrays exist; the two trees' arrays must then be equal, bit for bit,
or the script stops.  Per size it prints each side's median, the median of
the paired ratios change/parent and the number of pairs the change ran
faster.  The base-pair path is not a benchmark workload (the ``pf`` and
``targets`` paths are, through ``tools/ab_bench.py``); this script is how it
is measured.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def load_tree(root: Path, name: str):
    """``root/src/jointfold`` imported as the package ``name``."""
    init = root / "src" / "jointfold" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    if spec is None or not init.is_file():
        raise SystemExit(f"{root}: no src/jointfold")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_pair(seed: int, k: int, n: int, m: int) -> tuple[str, str]:
    rng = np.random.default_rng([seed, k])
    return tuple("".join("ACGU"[c] for c in rng.integers(0, 4, length)) for length in (n, m))


def run_path(jf, r: str, s: str) -> tuple[float, list]:
    """Wall time of one pair through the base-pair path and its three arrays."""
    model = jf.default_model()
    R, S = jf.Strand.query(r), jf.Strand.target_from_5to3(s)
    t0 = time.perf_counter()
    prob = jf.outside(jf.inside(R, S, model))
    outputs = [prob.bpp_r, prob.bpp_s, prob.bpp_ext]
    return time.perf_counter() - t0, outputs


def equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def parse_size(text: str) -> tuple[int, int]:
    n, _, m = text.partition("x")
    return int(n), int(m)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    ap.add_argument("--sizes", required=True, help="comma-separated NxM, e.g. 20x20,8x48")
    ap.add_argument("--pairs", type=int, default=10, help="timed pairs per size")
    ap.add_argument("--seed", type=int, default=0, help="seed of the random pairs")
    args = ap.parse_args(argv)

    trees = {side: load_tree(getattr(args, side).resolve(), f"jointfold_{side}")
             for side in SIDES}
    for text in args.sizes.split(","):
        n, m = parse_size(text)
        for side in SIDES:  # warm-up, not recorded
            run_path(trees[side], *make_pair(args.seed, 0, n, m))
        times = {side: [] for side in SIDES}
        for k in range(1, args.pairs + 1):
            r, s = make_pair(args.seed, k, n, m)
            order = SIDES if k % 2 else SIDES[::-1]
            outputs = {}
            for side in order:
                seconds, outputs[side] = run_path(trees[side], r, s)
                times[side].append(seconds)
            if not all(equal(a, b) for a, b in zip(*outputs.values(), strict=True)):
                raise SystemExit(f"{text} pair {k}: the outputs of the two trees differ")
            print(f"{text} pair {k} ({order[0]} first): parent {times['parent'][-1]:.4f} s,"
                  f" change {times['change'][-1]:.4f} s", flush=True)
        ratios = [c / p for p, c in zip(times["parent"], times["change"])]
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        print(f"bpp {text}: parent median {statistics.median(times['parent']):.4f} s,"
              f" change median {statistics.median(times['change']):.4f} s,"
              f" paired ratio {statistics.median(ratios):.3f},"
              f" change faster in {wins}/{args.pairs}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
