"""Time the base-pair or target path of two source trees on the same pairs, in one process.

    python3 tools/ab_inprocess.py --parent ../parent --change . \
        --sizes 20x20,8x48 --pairs 10 [--path bpp|targets]

Each tree's ``src/jointfold`` is imported under its own package name
(``jointfold_parent``, ``jointfold_change``), so both trees run in one
interpreter, on the same warm numpy and in the same phase of the machine.
Pair ``k`` of a size ``NxM`` is a random ACGU pair drawn from ``--seed`` and
``k`` (query R of N nt, target S of M nt read 5'->3'), with each tree's
``default_model()``.  Both trees take it through one path:

- ``bpp`` (the default): ``inside`` -> ``outside`` -> reading ``bpp_r``,
  ``bpp_s`` and ``bpp_ext``.  The two trees' arrays must be equal, bit for
  bit.
- ``targets``: ``inside`` -> ``outside`` -> ``hybrid_probabilities`` ->
  ``target_sites`` (threshold 0), as the ``targets`` command runs it.  The
  two trees' ``HybridProbMatrix.total`` and target rows (strand, start, end
  and probability) must agree, each entry to 1e-12 relative, with the same
  zero entries and the same rows in the same order.

Pair 0 warms both trees up and is not recorded; then odd pairs run the
parent first and even pairs the change first.  The timed region ends once the
path's outputs exist; if the two trees' outputs do not agree, the script
stops.  Per size it prints each side's median, the median of the paired
ratios change/parent and the number of pairs the change ran faster.  Neither
path is timed this way by ``tools/ab_bench.py``, which runs the benchmark's
workloads one process per run; this script compares two trees in the same
phase of the machine.
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


def run_path(jf, r: str, s: str, path: str) -> tuple[float, list]:
    """Wall time of one pair through ``path`` and the path's outputs: the
    three base-pair arrays, or the hybrid matrix and the target rows as an
    array of (strand, start, end, probability)."""
    model = jf.default_model()
    R, S = jf.Strand.query(r), jf.Strand.target_from_5to3(s)
    t0 = time.perf_counter()
    res = jf.inside(R, S, model)
    prob = jf.outside(res)
    if path == "bpp":
        outputs = [prob.bpp_r, prob.bpp_s, prob.bpp_ext]
    else:
        hyb = jf.hybrid_probabilities(res, prob)
        rows = jf.target_sites(hyb, threshold=0.0).rows
    seconds = time.perf_counter() - t0
    if path == "targets":
        outputs = [hyb.total, np.array([(row.strand == "S", row.start, row.end, row.probability)
                                        for row in rows]).reshape(-1, 4)]
    return seconds, outputs


def agree(a: np.ndarray, b: np.ndarray, path: str) -> bool:
    """The two trees' outputs agree: bit for bit on the base-pair path, to
    1e-12 relative per entry (with the same zeros) on the target path."""
    if a.shape != b.shape:
        return False
    if path == "bpp":
        return bool(np.array_equal(a, b))
    return bool(np.all(np.abs(a - b) <= 1e-12 * np.abs(a)))


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
    ap.add_argument("--path", choices=("bpp", "targets"), default="bpp",
                    help="the path timed: base pairs (default) or target sites")
    args = ap.parse_args(argv)

    trees = {side: load_tree(getattr(args, side).resolve(), f"jointfold_{side}")
             for side in SIDES}
    for text in args.sizes.split(","):
        n, m = parse_size(text)
        for side in SIDES:  # warm-up, not recorded
            run_path(trees[side], *make_pair(args.seed, 0, n, m), args.path)
        times = {side: [] for side in SIDES}
        for k in range(1, args.pairs + 1):
            r, s = make_pair(args.seed, k, n, m)
            order = SIDES if k % 2 else SIDES[::-1]
            outputs = {}
            for side in order:
                seconds, outputs[side] = run_path(trees[side], r, s, args.path)
                times[side].append(seconds)
            if not all(agree(a, b, args.path) for a, b in zip(*outputs.values(), strict=True)):
                raise SystemExit(f"{text} pair {k}: the outputs of the two trees differ")
            print(f"{text} pair {k} ({order[0]} first): parent {times['parent'][-1]:.4f} s,"
                  f" change {times['change'][-1]:.4f} s", flush=True)
        ratios = [c / p for p, c in zip(times["parent"], times["change"])]
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        print(f"{args.path} {text}: parent median {statistics.median(times['parent']):.4f} s,"
              f" change median {statistics.median(times['change']):.4f} s,"
              f" paired ratio {statistics.median(ratios):.3f},"
              f" change faster in {wins}/{args.pairs}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
