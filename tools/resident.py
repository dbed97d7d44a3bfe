"""Estimated, allocated and resident bytes of each 4D tensor family.

    python3 tools/resident.py [--src DIR] [--json]

For the reference pair (pair 0 of ``perfbench/reference.json``) of each
benchmark workload, with ``default_model()``, it runs the tables that the
workload's pipeline fills: ``inside``, and ``outside`` for the ``targets``
workloads.  Then, per tensor family of the store, it prints

* estimated: the family's share of the estimate's tensor bytes (its keys
  times the bytes of one table);
* allocated: the bytes of the family's mapping;
* resident: the pages of that mapping in memory, from Linux ``mincore``
  called through ``ctypes`` (``n/a`` where that call is unavailable).  A
  table page that nothing wrote was never touched, so it is not resident.

and the run's total: ``estimate_memory_bytes`` against the tables plus the
work buffers of ``_operands`` plus the strand-side arrays (the engines'
planes, the strand factors and the other arrays of ``_Ctx``).  ``--src``
imports ``jointfold`` from another source tree, so the same script measures
two trees; ``--json`` prints one JSON object instead of the tables.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import mmap
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PIPELINES = {"pf-sq24": "pf", "targets-sq20": "targets", "sample-sq12": "sample",
             "targets-8x48": "targets"}


def _mincore():
    """libc's ``mincore``, or None where it cannot be called."""
    try:
        fn = ctypes.CDLL(None, use_errno=True).mincore
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.POINTER(ctypes.c_ubyte))
    fn.restype = ctypes.c_int
    return fn


MINCORE = _mincore()


def resident_bytes(arr: np.ndarray) -> int | None:
    """Bytes of the pages under ``arr``'s buffer that are in memory."""
    if MINCORE is None or arr.nbytes == 0:
        return None
    page = mmap.PAGESIZE
    start = arr.ctypes.data // page * page
    length = arr.ctypes.data + arr.nbytes - start
    vec = (ctypes.c_ubyte * -(-length // page))()
    if MINCORE(start, length, vec) != 0:
        return None
    return sum(v & 1 for v in vec) * page


def _unique_nbytes(arrays) -> int:
    """Bytes of the distinct buffers under ``arrays`` (a view counts its base)."""
    bases = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        bases[id(a)] = a.nbytes
    return sum(bases.values())


def measure(jf, gi, workload: str, r: str, s: str) -> dict:
    """Per family and in total, the bytes of one pair through a workload's
    tables."""
    outside = PIPELINES[workload] == "targets"
    R, S = jf.Strand.query(r), jf.Strand.target_from_5to3(s)
    res = jf.inside(R, S, jf.default_model())
    if outside:
        jf.outside(res)
    n, m, store, ctx = len(r), len(s), res.store, res.ctx
    per_table = gi._tensor_bytes(n, m, False) // gi._array_count(gi._FAMILIES)
    families = {}
    for family, (_lead, keys) in (gi._FAMILIES | gi._OUT_FAMILIES).items():
        if family in store.flats:
            flat = store.flat(family)
            families[family] = {"estimated": len(keys) * per_table, "allocated": flat.nbytes,
                                "resident": resident_bytes(flat)}
    work = sum(buf.nbytes for buf in gi._operands(store, ctx)["work"].values())
    strand = [eng.planes for eng in (res.sec_r, res.sec_s)]
    strand += [a for a in vars(ctx).values() if isinstance(a, np.ndarray)]
    strand += [a for _eng, index, weight in ctx.factors.values() for a in (index, weight)]
    strand_bytes = _unique_nbytes(strand)
    resident = [f["resident"] for f in families.values()]
    return {
        "n": n, "m": m, "outside": outside, "families": families,
        "total": {
            "estimated": gi.estimate_memory_bytes(n, m, outside),
            "allocated": store.allocated_bytes + work + strand_bytes,
            "tables": store.allocated_bytes, "work_buffers": work,
            "strand_arrays": strand_bytes,
            "tables_resident": None if None in resident else sum(resident),
        },
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value / 1e6:.2f}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the source tree to import jointfold from")
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import jointfold as jf
    import jointfold.grammar_inside as gi

    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())["workloads"]
    report = {w: measure(jf, gi, w, refs[w][0]["r"], refs[w][0]["s"]) for w in PIPELINES}
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    for workload, rec in report.items():
        tables = "inside + outside" if rec["outside"] else "inside"
        print(f"{workload} ({rec['n']}x{rec['m']}, {tables})")
        print(f"  {'family':<10} {'estimated MB':>13} {'allocated MB':>13} {'resident MB':>12}")
        for family, f in rec["families"].items():
            print(f"  {family:<10} {_fmt(f['estimated']):>13} {_fmt(f['allocated']):>13} "
                  f"{_fmt(f['resident']):>12}")
        t = rec["total"]
        print(f"  {'total':<10} {_fmt(t['estimated']):>13} {_fmt(t['allocated']):>13} "
              f"{_fmt(t['tables_resident']):>12}  (allocated: tables {_fmt(t['tables'])}, "
              f"work buffers {_fmt(t['work_buffers'])}, strand arrays {_fmt(t['strand_arrays'])};"
              " resident: tables)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
