"""Workloads of the jointfold benchmark: seeded pairs, pipelines and checks.

Each workload takes random ACGU sequence pairs of one shape through one CLI
pipeline, calling the public library API the way ``jointfold`` does:

- ``pf``:      ``inside``
- ``targets``: ``inside`` -> ``outside`` -> ``hybrid_probabilities`` -> ``target_sites``
- ``sample``:  ``inside`` -> ``sample_batch``

Pairs run one at a time in one process (a closed loop with one client).
Pair 0 of every run is the reference pair of the default seed, whose outputs
are compared with ``reference.json``; pairs 1, 2, ... come from ``--seed``.

``run.py`` imports this module and calls :func:`run` for one workload run.
Run as a script, ``python3 perfbench/workloads.py --record-reference``
rewrites ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jointfold as jf  # noqa: E402
from jointfold.grammar_inside import estimate_memory_bytes  # noqa: E402

from tracing import (  # noqa: E402
    AGGREGATE, FOLD, INSIDE, OUTSIDE, SAMPLE_BATCH, SEC_OUTSIDE, SEC_SAMPLE, Tracer,
)

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
TRACE_DIR = ROOT / ".perfbench"
REFERENCE_PAIRS = 4  # pairs 0..3 of the default seed are recorded
REFERENCE_ROWS = 5  # top target rows recorded per targets pair
REL_TOL = 1e-9
PROB_SLACK = 1e-9  # rounding allowed above 1 for a probability
SIGMAS = 5.0
SETUP_CODE = "import jointfold; jointfold.default_model()"
# calibration work, and its wall time at the reference speed: the median of
# 200 calibrations on a 2-vCPU x86-64 virtual machine was 0.2003 s
CAL_EINSUMS = 150
CAL_LOOP = 200_000
CAL_REF_S = 0.2


LAYER_UNITS = {
    "secfold.fold_s": "s",
    "secfold.outside_s": "s",
    "secfold.sample_s": "s",
    "grammar_inside.inside_self_s": "s",
    "grammar_inside.einsum_calls": "count",
    "grammar_inside.table_bytes": "B",
    "grammar_inside.tensors": "count",
    "grammar_inside.est_over_actual": "ratio",
    "grammar_inside.temp_peak_bytes": "B",
    "outside_prob.outside_self_s": "s",
    "outside_prob.einsum_calls": "count",
    "outside_prob.table_bytes_added": "B",
    "outside_prob.tensors_added": "count",
    "outside_prob.temp_peak_bytes": "B",
    "outside_prob.outside_over_inside": "ratio",
    "outside_prob.aggregate_s": "s",
    "sampler.draw_s": "s",
    "sampler.draw_self_s": "s",
    "sampler.arcs_per_draw": "arcs",
    "trace.pair_s": "s",
    "trace.untraced_pair_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # length of the query R
    m: int  # length of the target S
    pipeline: str  # "pf" | "targets" | "sample"
    draws: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("pf-sq24", 24, 24, "pf"),
    Workload("targets-sq20", 20, 20, "targets"),
    Workload("sample-sq12", 12, 12, "sample", draws=1000),
    Workload("targets-8x48", 8, 48, "targets"),
)}


@dataclass(frozen=True)
class Pair:
    seed: int
    k: int
    r: str  # query, 5'->3'
    s: str  # target, 5'->3' as in a FASTA file
    sample_seed: int

    def strands(self):
        return jf.Strand.query(self.r), jf.Strand.target_from_5to3(self.s)


def make_pair(w: Workload, seed: int, k: int) -> Pair:
    """Pair ``k`` of a run; pair 0 comes from the default seed in every run."""
    src = DEFAULT_SEED if k == 0 else seed
    rng = np.random.default_rng([src, k])
    r = "".join("ACGU"[c] for c in rng.integers(0, 4, w.n))
    s = "".join("ACGU"[c] for c in rng.integers(0, 4, w.m))
    return Pair(src, k, r, s, int(rng.integers(2**31)))


@dataclass
class PairOutput:
    res: object
    prob: object = None
    table: object = None
    batch: object = None


def _no_span(_name):
    return contextlib.nullcontext()


def run_pipeline(w: Workload, model, pair: Pair, span=_no_span) -> PairOutput:
    """Take one pair through the workload's pipeline."""
    with span("pair"):
        R, S = pair.strands()
        with span(INSIDE):
            out = PairOutput(jf.inside(R, S, model))
        if w.pipeline == "targets":
            with span(OUTSIDE):
                out.prob = jf.outside(out.res)
            with span(AGGREGATE):
                hyb = jf.hybrid_probabilities(out.res, out.prob)
                out.table = jf.target_sites(hyb)
        elif w.pipeline == "sample":
            with span(SAMPLE_BATCH):
                out.batch = jf.sample_batch(out.res, w.draws, pair.sample_seed)
    return out


# -- output checks ------------------------------------------------------------


def _in_unit_interval(arr) -> bool:
    arr = np.asarray(arr)
    return bool(np.all(arr >= 0.0) and np.all(arr <= 1.0 + PROB_SLACK))


def _binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) if k is above the mean n*p, else P(X <= k), X ~ Bin(n, p)."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    ks = range(k, n + 1) if k >= n * p else range(0, k + 1)
    return sum(
        math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 + i * math.log(p) + (n - i) * math.log1p(-p))
        for i in ks
    )


def check_output(w: Workload, model, out: PairOutput, ref: dict | None) -> list[str]:
    """Everything wrong with one pair's outputs; empty when it passes."""
    errors = []
    res = out.res
    if not (math.isfinite(res.q_total) and res.q_total >= res.q_no_interaction > 0.0):
        errors.append(f"q_total {res.q_total!r} vs q_no_interaction {res.q_no_interaction!r}")
    if out.prob is not None:
        prob = out.prob
        for name in ("bpp_r", "bpp_s", "bpp_ext"):
            if not _in_unit_interval(getattr(prob, name)):
                errors.append(f"{name} has an entry outside [0, 1]")
        per_base_r = prob.bpp_r.sum(axis=0) + prob.bpp_r.sum(axis=1) + prob.bpp_ext.sum(axis=1)
        per_base_s = prob.bpp_s.sum(axis=0) + prob.bpp_s.sum(axis=1) + prob.bpp_ext.sum(axis=0)
        for sid, tot in (("R", per_base_r), ("S", per_base_s)):
            if not np.all(tot <= 1.0 + PROB_SLACK):
                errors.append(f"{sid} base paired with probability {tot.max()!r}")
    if out.table is not None and not _in_unit_interval([r.probability for r in out.table.rows]):
        errors.append("target row outside [0, 1]")
    if out.batch is not None:
        structures = out.batch.structures
        if len(structures) != w.draws:
            errors.append(f"{len(structures)} draws, expected {w.draws}")
        bad = [js for js in structures if not jf.validate(js, model.min_hairpin)]
        if bad:
            errors.append(f"{len(bad)} invalid draws: {jf.validate(bad[0], model.min_hairpin)}")
        k = sum(1 for js in structures if not js.exterior)
        p = res.q_no_interaction / res.q_total
        # the 5-sigma level, taken from the exact binomial tail so that it
        # also holds when the expected count is small
        if _binomial_tail(k, len(structures), p) < 0.5 * math.erfc(SIGMAS / math.sqrt(2)):
            errors.append(f"{k} no-interaction draws of {len(structures)}, expected share {p!r}")
    if ref is not None:
        errors += _check_reference(out, ref)
    return errors


def _check_reference(out: PairOutput, ref: dict) -> list[str]:
    errors = []
    if not math.isclose(out.res.q_total, ref["q_total"], rel_tol=REL_TOL, abs_tol=0.0):
        errors.append(f"q_total {out.res.q_total!r}, reference {ref['q_total']!r}")
    if out.table is not None:
        got = {(r.strand, r.start, r.end): r.probability for r in out.table.rows}
        for strand, start, end, p in ref["targets"]:
            q = got.get((strand, start, end))
            if q is None or not math.isclose(q, p, rel_tol=REL_TOL, abs_tol=0.0):
                errors.append(f"target {strand}[{start},{end}] p={q!r}, reference {p!r}")
    return errors


def load_references(w: Workload) -> dict[int, dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    return {ref["k"]: ref for ref in data["workloads"][w.name]}


def reference_for(pair: Pair, refs: dict[int, dict]) -> dict | None:
    ref = refs.get(pair.k) if pair.seed == DEFAULT_SEED else None
    if ref is not None and (ref["r"], ref["s"]) != (pair.r, pair.s):
        raise RuntimeError(f"pair {pair.k} differs from the recorded reference pair")
    return ref


def record_references(model) -> dict:
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS.values():
        rows = []
        for k in range(REFERENCE_PAIRS):
            pair = make_pair(w, DEFAULT_SEED, k)
            out = run_pipeline(w, model, pair)
            errors = check_output(w, model, out, None)
            if errors:
                raise RuntimeError(f"{w.name} pair {k}: {errors}")
            targets = [] if out.table is None else [
                [r.strand, r.start, r.end, r.probability]
                for r in out.table.rows[:REFERENCE_ROWS]
            ]
            rows.append({"k": k, "r": pair.r, "s": pair.s,
                         "q_total": out.res.q_total, "targets": targets})
        data["workloads"][w.name] = rows
    return data


# -- timed runs -----------------------------------------------------------------


@dataclass
class Attempt:
    seconds: float
    errors: list[str]
    arcs: list[int]  # arcs of each draw, for sample workloads


def attempt(w: Workload, model, pair: Pair, ref: dict | None, span=_no_span) -> Attempt:
    """Run and check one pair; a raise or a failed check fails the pair.

    The outputs are dropped on return, so that one pair's tables are freed
    before the next pair allocates its own, as in one CLI call per pair.
    """
    t0 = time.perf_counter()
    try:
        out = run_pipeline(w, model, pair, span)
    except Exception as exc:  # a pair that raises is a failed pair
        return Attempt(time.perf_counter() - t0, [f"raised {exc!r}"], [])
    seconds = time.perf_counter() - t0
    arcs = [] if out.batch is None else [js.arc_count for js in out.batch.structures]
    return Attempt(seconds, check_output(w, model, out, ref), arcs)


def probe_memory(w: Workload, model, pair: Pair) -> dict[str, float]:
    """Table and temporary bytes of ``inside`` and ``outside``, untimed."""
    R, S = pair.strands()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = jf.inside(R, S, model)
        inside_peak = tracemalloc.get_traced_memory()[1] - base
        table = res.store.peak_bytes
        tensors = len(res.store.arrays)
        added = tensors_added = outside_temp = 0
        if w.pipeline == "targets":
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            jf.outside(res)
            outside_peak = tracemalloc.get_traced_memory()[1] - base
            added = res.store.peak_bytes - table
            tensors_added = len(res.store.arrays) - tensors
            outside_temp = outside_peak - added
    finally:
        tracemalloc.stop()
    return {
        "grammar_inside.table_bytes": table,
        "grammar_inside.tensors": tensors,
        "grammar_inside.est_over_actual": estimate_memory_bytes(w.n, w.m, False) / table,
        "grammar_inside.temp_peak_bytes": inside_peak - table,
        "outside_prob.table_bytes_added": added,
        "outside_prob.tensors_added": tensors_added,
        "outside_prob.temp_peak_bytes": outside_temp,
    }


def layer_metrics(w: Workload, tracer: Tracer, scales: list[float], untraced: list[float],
                  arcs_per_draw: float, memory: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced pairs, whose times are
    multiplied by ``scales`` (one per traced pair, as in :func:`run`)."""
    pairs = [{"pair_s": p["pair_s"] * f, "einsum": p["einsum"],
              "seconds": {name: t * f for name, t in p["seconds"].items()}}
             for p, f in zip(tracer.pairs(), scales, strict=True)]

    def med(f):
        return statistics.median(f(p) for p in pairs)

    def sec(p, name):
        return p["seconds"].get(name, 0.0)

    draws = w.draws or 1  # draw metrics read 0 when nothing is sampled
    inside_self = med(lambda p: sec(p, INSIDE) - sec(p, FOLD))
    outside_self = med(lambda p: sec(p, OUTSIDE) - sec(p, SEC_OUTSIDE))
    traced = med(lambda p: p["pair_s"])
    untraced_s = statistics.median(untraced)
    metrics = {
        "secfold.fold_s": med(lambda p: sec(p, FOLD)),
        "secfold.outside_s": med(lambda p: sec(p, SEC_OUTSIDE)),
        "secfold.sample_s": med(lambda p: sec(p, SEC_SAMPLE)),
        "grammar_inside.inside_self_s": inside_self,
        "grammar_inside.einsum_calls": med(lambda p: p["einsum"].get(INSIDE, 0)),
        "outside_prob.outside_self_s": outside_self,
        "outside_prob.einsum_calls": med(lambda p: p["einsum"].get(OUTSIDE, 0)),
        "outside_prob.outside_over_inside": outside_self / inside_self,
        "outside_prob.aggregate_s": med(lambda p: sec(p, AGGREGATE)),
        "sampler.draw_s": med(lambda p: sec(p, SAMPLE_BATCH)) / draws,
        "sampler.draw_self_s": med(lambda p: sec(p, SAMPLE_BATCH) - sec(p, SEC_SAMPLE)) / draws,
        "sampler.arcs_per_draw": arcs_per_draw,
        "trace.pair_s": traced,
        "trace.untraced_pair_s": untraced_s,
        "trace.overhead_s": traced - untraced_s,
        "trace.coverage": med(lambda p: sum(
            sec(p, name) for name in (INSIDE, OUTSIDE, AGGREGATE, SAMPLE_BATCH)
        ) / p["pair_s"]),
    }
    metrics.update(memory)
    return metrics


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports jointfold and builds
    the default model, as every CLI call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


_CAL_A = np.random.default_rng(0).random((40, 40, 40))
_CAL_B = np.random.default_rng(1).random((40, 40))


def calibrate() -> float:
    """Wall time of a fixed piece of work that stands for the machine's speed:
    ``numpy.einsum`` on small dense arrays and a Python dictionary loop, the
    two kinds of work the pipelines do.  It calls nothing in ``jointfold``."""
    t0 = time.perf_counter()
    for _ in range(CAL_EINSUMS):
        np.einsum("ijk,kl->ijl", _CAL_A, _CAL_B)
    counts: dict[int, int] = {}
    for i in range(CAL_LOOP):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - t0


def run(w: Workload, model, seed: int, seconds: float, trace: bool) -> dict:
    """Run pairs for ``seconds``; return times, counts, metrics.

    Pairs run in rounds, and a round starts only if a round as long as the
    last one still ends within ``seconds`` (the first round always runs).

    Untraced, each pair runs once, and after each pair one fresh interpreter
    measures the set-up time, so that set-up samples spread over the run;
    a first, unrecorded launch compiles the bytecode.  Every pair and every
    set-up launch lies between two calibrations, and its wall time is also
    returned scaled to the reference speed: ``wall * CAL_REF_S / c``, with
    ``c`` the mean of the two calibrations around it.  Traced, each pair runs
    once untraced and once traced, in alternating order, each between two
    calibrations and scaled the same way, so the difference is the tracing
    overhead on the same input; the reference pair also gets an untimed
    memory probe under ``tracemalloc``.
    """
    refs = load_references(w)
    tracer = Tracer() if trace else None
    memory = probe_memory(w, model, make_pair(w, seed, 0)) if trace else {}
    if not trace:
        setup_seconds()
    cal = calibrate()
    times: list[float] = []
    setup: list[float] = []
    scaled: dict[str, list[float]] = {"pair": [], "setup": []}
    traced_scales: list[float] = []
    arcs: list[int] = []
    attempted = failed = 0
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    k = 0
    last = 0.0  # wall time of the last round; no round starts that would end late
    while k == 0 or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        pair = make_pair(w, seed, k)
        ref = reference_for(pair, refs)
        modes = (False,)
        if trace:  # alternate which run goes first, so that order effects cancel
            modes = (False, True) if k % 2 == 0 else (True, False)
        for traced in modes:
            if traced:
                with tracer.installed():
                    a = attempt(w, model, pair, ref, tracer.span)
                arcs += a.arcs
            else:
                a = attempt(w, model, pair, ref)
            before, cal = cal, calibrate()
            scale = CAL_REF_S / (0.5 * (before + cal))
            if traced:
                traced_scales.append(scale)
            else:
                times.append(a.seconds)
                scaled["pair"].append(a.seconds * scale)
            attempted += 1
            if a.errors:
                failed += 1
                errors.append(f"pair {pair.seed}:{pair.k}: " + "; ".join(a.errors))
        if not trace:
            setup.append(setup_seconds())
            before, cal = cal, calibrate()
            scaled["setup"].append(setup[-1] * CAL_REF_S / (0.5 * (before + cal)))
        last = time.perf_counter() - start
        k += 1
    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "pair_times": times, "setup_times": setup,
              "pair_scaled": scaled["pair"], "setup_scaled": scaled["setup"]}
    if trace:
        tracer.write(TRACE_DIR / f"trace-{w.name}-seed{seed}.jsonl")
        arcs_per_draw = statistics.fmean(arcs) if arcs else 0.0
        metrics = layer_metrics(w, tracer, traced_scales, scaled["pair"],
                                arcs_per_draw, memory)
        result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in LAYER_UNITS.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record-reference", action="store_true", required=True,
                    help="rewrite reference.json from the current code")
    ap.parse_args(argv)
    data = record_references(jf.default_model())
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
