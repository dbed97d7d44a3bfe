"""Stochastic traceback: exact Boltzmann samples of joint structures.

At each component the case distribution is the partition-function ratio of
the mutually exclusive decomposition cases (:mod:`jointfold._cases` for the
4D components, the declarations of :mod:`jointfold.secfold` that filled the
secondary cells); a draw picks one case with a single uniform against the
prefix sums of the positive cases, fixes the case's arcs and continues into
its children.  This is the stochastic traceback of Ding & Lawrence 2003 (NAR
31:7280).

All draws of a call walk together, and their bookkeeping is held in index
arrays.  A priority queue holds the distinct pending components, each with
the arrays of draws waiting on it.  Popping a component scores its cases
once, however many draws wait on it, as one weight vector: a 4D component
gathered from the stored tensor families (:func:`jointfold._cases.scored_cases`),
a secondary cell ``("sec", sid, kind, i, j)`` from its engine's planes
(:meth:`SecEngine.sample`).  After the one normalisation check, the waiting
draws take one uniform each from their own streams with one gather
(:meth:`jointfold._streams.Streams.take`), and one ``searchsorted`` over
the prefix sums picks all of their cases
(:func:`jointfold.secfold.pick_with_slack`).  The draws are grouped by
chosen case (up to ``_FEW`` draws in Python, more with one stable
``argsort``); each distinct case is decoded
once, its arcs are recorded once as (draws, arc) and its children are
handed to the group.  Each draw's arcs are assembled from these records at
the end.
Forced-unpaired segments (``unp``) and empty secondary segments fix no arcs
and are not queued.

The queue pops the 4D components first: larger span sums
``(j-i+1)+(l-h+1)`` first and, at equal span sum, ``top``, then ``gap``,
then ``chain``, then the items.  The secondary cells follow: larger spans
first and, at equal span, the table kinds in the reverse of their fill order
(as in :meth:`SecEngine.outside`).  Every child of a case comes strictly
later in this order than its parent, so a component is popped only after
all of its parents and is resolved once.

Each draw consumes uniforms from its own stream only, and it visits its own
components in the fixed queue order, which depends on nothing but the draw
itself.  So a draw does not depend on the batch size or on the other draws
of the batch.  The traversal order does not affect the sampled
distribution.  In :func:`sample_batch` the streams are numpy's spawned PCG64
streams computed as arrays (:mod:`jointfold._streams`); :func:`sample_one`
takes its uniforms from the numpy generator it is given, through the same
walk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ._cases import component_value, scored_cases
from .grammar_inside import InsideResult
from ._streams import Streams
from .secfold import (
    FILL_ORDER,
    NumericalUnderflow,
    check_partition_function,
    pick_with_slack,
)
from .seq_model import JointStructure

__all__ = [
    "NumericalUnderflow",
    "SampleBatch",
    "sample_one",
    "sample_batch",
]

# queue rank of a 4D kind among components of equal span sum; items rank last
_RANK = {"top": 0, "gap": 1, "chain": 2}
# queue rank of a secondary table kind among cells of equal span
_SEC_RANK = {kind: r for r, kind in enumerate(reversed(FILL_ORDER))}
# the arc set an emission of a 4D case joins
_ARC_SET = {"ext": "ext", "arc_r": "R", "arc_s": "S"}
# draws walked together by one sample_batch pass; bounds what is held per draw
_BLOCK = 4096
# a pop of at most this many draws groups them in Python, not numpy: over the
# pops of 1000-draw batches, grouping in Python took as long as the argsort at
# 49-64 waiting draws and longer from 65 on at 12x12 (from about 160 on at
# 24x24), and 90% of the pops at 12x12 wait on at most 64 draws
_FEW = 64


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of sampled structures.

    ``case_slack`` is the largest normalisation slack,
    ``|sum(cases) - stored| / stored``, over the components the batch
    visited (at most 1e-6, or the batch would have failed).
    """

    structures: tuple[JointStructure, ...]
    seed: int
    model_fingerprint: str
    draw_count: int
    case_slack: float = 0.0


def _queue_key(res: InsideResult, comp: tuple) -> tuple:
    """Pop order: 4D components by span sum, then secondary cells by span."""
    kind = comp[0]
    if kind == "sec":
        _, _sid, table, i, j = comp
        return (1, i - j, _SEC_RANK[table], comp)
    if kind == "top":
        span = res.ctx.n + res.ctx.m
    else:
        i, j, h, l = comp[-4:]
        span = (j - i + 1) + (l - h + 1)
    return (0, -span, _RANK.get(kind, 3), comp)


def _groups(chosen: np.ndarray, waiting: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(case, draws that chose it) for each distinct case of ``chosen``, in
    increasing case order; the draws keep their order in ``waiting``."""
    if chosen.size <= _FEW:
        cases = chosen.tolist()
        if cases.count(cases[0]) == len(cases):
            return [(cases[0], waiting)]
        by_case: dict[int, list[int]] = {}
        for t, k in zip(cases, waiting.tolist()):
            by_case.setdefault(t, []).append(k)
        return [(t, np.array(by_case[t])) for t in sorted(by_case)]
    if not (chosen != chosen[0]).any():
        return [(int(chosen[0]), waiting)]
    order = np.argsort(chosen, kind="stable")
    ranked = chosen[order]
    head = np.empty(ranked.size, bool)
    head[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    draws = waiting[order]
    bounds = starts.tolist() + [ranked.size]
    return [
        (t, draws[a:b]) for t, a, b in zip(ranked[starts].tolist(), bounds, bounds[1:])
    ]


def _per_draw(records: list[tuple[np.ndarray, tuple]], n: int) -> list[list[tuple]]:
    """The arcs of each of ``n`` draws from (draws, arc) records."""
    per: list[list[tuple]] = [[] for _ in range(n)]
    for draws, arc in records:
        for k in draws.tolist():
            per[k].append(arc)
    return per


def _draw(
    res: InsideResult, streams, first: int = 0
) -> tuple[list[JointStructure], float]:
    """One structure per stream, and the largest normalisation slack met.

    ``streams`` is a :class:`Streams` or a list of numpy generators, one per
    draw; draw ``k`` takes its uniforms from stream ``k`` only.

    Raises:
        NumericalUnderflow: ``q_total`` is not finite and positive, or a
            visited component's cases do not sum to its stored value within
            1e-6 relative; the message starts with ``draw <first + k>:``,
            the lowest draw waiting on the component.
    """
    check_partition_function(res.q_total)
    n = len(streams)
    if isinstance(streams, Streams):
        take = streams.take
    else:
        def take(rows: np.ndarray) -> np.ndarray:
            return np.array([streams[k].random() for k in rows.tolist()])
    engines = {"R": res.sec_r, "S": res.sec_s}
    # (draws, arc) records: interior arcs on R, on S, exterior arcs
    arcs: dict[str, list] = {"R": [], "S": [], "ext": []}
    slack = 0.0
    top = ("top",)
    pending: dict[tuple, list[np.ndarray]] = {top: [np.arange(n)]}
    queue = [_queue_key(res, top)]

    def enqueue(child: tuple, draws: np.ndarray) -> None:
        waiting = pending.get(child)
        if waiting is None:
            pending[child] = [draws]
            heapq.heappush(queue, _queue_key(res, child))
        else:
            waiting.append(draws)

    while queue:
        comp = heapq.heappop(queue)[-1]
        parts = pending.pop(comp)
        waiting = parts[0] if len(parts) == 1 else np.concatenate(parts)
        us = take(waiting)
        sec = comp[0] == "sec"
        try:
            if sec:
                decode, chosen, dev = engines[comp[1]].sample(*comp[2:], us)
            else:
                weights, decode = scored_cases(res, comp)
                chosen, dev = pick_with_slack(weights, component_value(res, comp), us)
        except NumericalUnderflow as exc:
            raise NumericalUnderflow(
                f"draw {first + int(waiting.min())}: component {comp}: {exc}"
            ) from None
        if dev > slack:
            slack = dev
        groups = _groups(chosen, waiting)

        if sec:
            sid = comp[1]
            for t, draws in groups:
                children, arc = decode(t)
                if arc is not None:
                    arcs[sid].append((draws, arc))
                for child in children:
                    enqueue(("sec", sid, *child), draws)
            continue

        for t, draws in groups:
            _w, children, emissions = decode(t)
            for kind, a, b in emissions:
                arcs[_ARC_SET[kind]].append((draws, (a, b)))
            for child in children:
                if child[0] == "unp" or (child[0] == "sec" and child[4] < child[3]):
                    continue
                enqueue(child, draws)

    structures = [
        JointStructure(n=res.ctx.n, m=res.ctx.m, interior_r=r, interior_s=s, exterior=e)
        for r, s, e in zip(*(_per_draw(arcs[key], n) for key in ("R", "S", "ext")))
    ]
    return structures, slack


def sample_one(res: InsideResult, rng: np.random.Generator) -> JointStructure:
    """Draw one joint structure with probability weight/Q_total.

    Raises:
        NumericalUnderflow: ``q_total`` is not finite and positive, or a
            visited component's cases do not sum to its stored value within
            1e-6 relative.
    """
    return _draw(res, [rng])[0][0]


def sample_batch(res: InsideResult, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` independent structures, reproducibly for a fixed seed.

    Draw ``k`` runs on its own stream, the uniforms of
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(k,))))``, the ``k``-th
    child of ``SeedSequence(seed).spawn(n)``.  The streams are not numpy
    objects: :class:`jointfold._streams.Streams` seeds and steps all of them
    as arrays and yields the same uniforms bit for bit.  All draws walk the
    pending components together, so a component that several draws reach
    is scored once for all of them; each draw still takes its uniforms from
    its own stream in an order fixed by the draw alone.  Draw ``k`` is
    therefore ``sample_one(res, Generator(PCG64(SeedSequence(seed).spawn(n)[k])))``
    whatever ``n`` is, and the draws are walked in blocks of ``_BLOCK``
    without changing the batch.  A block bounds what the streams hold at
    once: ``_streams._UNIFORMS`` uniforms drawn ahead per draw (256 B) and
    the stream state, 1.2 MB for a full block of 4096 draws, and 2.2 MB at
    the peak while uniforms are drawn.

    Raises:
        ValueError: n < 1, or seed < 0 (refused by the seeding, as by
            numpy's ``SeedSequence``).
        NumericalUnderflow: from any draw, annotated with the draw index.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    structures: list[JointStructure] = []
    slack = 0.0
    for first in range(0, n, _BLOCK):
        streams = Streams(seed, np.arange(first, min(n, first + _BLOCK), dtype=np.uint64))
        block, block_slack = _draw(res, streams, first)
        structures += block
        slack = max(slack, block_slack)
    return SampleBatch(
        structures=tuple(structures),
        seed=seed,
        model_fingerprint=res.model.fingerprint(),
        draw_count=n,
        case_slack=slack,
    )
