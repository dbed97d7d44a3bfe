"""Stochastic traceback: exact Boltzmann samples of joint structures.

At each component the case distribution is the partition-function ratio of
the mutually exclusive decomposition cases (:mod:`jointfold._cases` for the
4D components, :meth:`SecEngine.cases` for the secondary cells); a draw picks
one case with a single uniform against the prefix sums of the positive
cases, fixes the case's arcs and continues into its children.  This is the
stochastic traceback of Ding & Lawrence 2003 (NAR 31:7280).

All draws of a call walk together.  A priority queue holds the distinct
pending components, each with the list of draws waiting on it.  Popping a
component scores its cases once, however many draws wait on it: a chain or
gap component as one weight vector read from tensor slices, the other 4D
kinds from their short case lists, a secondary cell ``("sec", sid, kind, i,
j)`` through :meth:`SecEngine.sample`.  After the one normalisation check,
every waiting draw takes one uniform from its own generator, in the order of
the waiting list, and one ``searchsorted`` over the prefix sums picks all of
their cases (:func:`jointfold.secfold.pick`); each distinct chosen case is
decoded once and its children are handed to every draw that chose it.
Forced-unpaired segments (``unp``) and empty secondary segments fix no arcs
and are not queued.

The queue pops the 4D components first: larger span sums
``(j-i+1)+(l-h+1)`` first and, at equal span sum, ``top``, then ``gap``,
then ``chain``, then the items.  The secondary cells follow: larger spans
first and, at equal span, the table kinds in the reverse of their fill order
(as in :meth:`SecEngine.outside`).  Every child of a case comes strictly
later in this order than its parent, so a component is popped only after
all of its parents and is resolved once.

Each draw consumes uniforms from its own generator only, and it visits its
own components in the fixed queue order, which depends on nothing but the
draw itself.  So a draw does not depend on the batch size or on the other
draws of the batch.  The traversal order does not affect the sampled
distribution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ._cases import component_value, scored_cases
from .grammar_inside import InsideResult
from .secfold import FILL_ORDER, NumericalUnderflow, check_partition_function, pick
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
# draws walked together by one sample_batch pass; bounds the generators held
_BLOCK = 4096


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of sampled structures."""

    structures: tuple[JointStructure, ...]
    seed: int
    model_fingerprint: str
    draw_count: int


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


def _by_choice(choices, waiting: list[int]) -> dict:
    """The waiting draws grouped by the case each of them chose."""
    groups: dict = {}
    for choice, k in zip(choices, waiting):
        groups.setdefault(choice, []).append(k)
    return groups


def _draw(
    res: InsideResult, rngs: list[np.random.Generator], first: int = 0
) -> list[JointStructure]:
    """One structure per generator; draw ``k`` uses only ``rngs[k]``.

    Raises:
        NumericalUnderflow: ``q_total`` is not finite and positive, or a
            visited component's cases do not sum to its stored value within
            1e-6 relative; the message starts with ``draw <first + k>:``,
            the lowest draw waiting on the component.
    """
    check_partition_function(res.q_total)
    engines = {"R": res.sec_r.engine, "S": res.sec_s.engine}
    # arcs fixed so far, one list per draw: interior on R, on S, exterior
    interior = {"R": [[] for _ in rngs], "S": [[] for _ in rngs]}
    exterior = [[] for _ in rngs]
    top = ("top",)
    pending: dict[tuple, list[int]] = {top: list(range(len(rngs)))}
    queue = [_queue_key(res, top)]

    def enqueue(child: tuple, draws: list[int]) -> None:
        if child in pending:
            pending[child] += draws
        else:
            pending[child] = list(draws)
            heapq.heappush(queue, _queue_key(res, child))

    while queue:
        comp = heapq.heappop(queue)[-1]
        waiting = pending.pop(comp)
        us = np.array([rngs[k].random() for k in waiting])
        try:
            if comp[0] == "sec":
                chosen = engines[comp[1]].sample(*comp[2:], us)
            else:
                weights, decode = scored_cases(res, comp)
                chosen = pick(weights, component_value(res, comp), us).tolist()
        except NumericalUnderflow as exc:
            raise NumericalUnderflow(
                f"draw {first + min(waiting)}: component {comp}: {exc}"
            ) from None

        if comp[0] == "sec":
            sid = comp[1]
            arcs = interior[sid]
            for (_w, children, arc), draws in _by_choice(chosen, waiting).items():
                if arc is not None:
                    for k in draws:
                        arcs[k].append(arc)
                for table, ci, cj in children:
                    if cj >= ci:
                        enqueue(("sec", sid, table, ci, cj), draws)
            continue

        for t, draws in _by_choice(chosen, waiting).items():
            _w, children, emissions = decode(t)
            for em in emissions:
                arcs = exterior if em[0] == "ext" else interior[
                    "R" if em[0] == "arc_r" else "S"]
                for k in draws:
                    arcs[k].append((em[1], em[2]))
            for child in children:
                if child[0] == "unp" or (child[0] == "sec" and child[4] < child[3]):
                    continue
                enqueue(child, draws)

    return [
        JointStructure(
            n=res.ctx.n,
            m=res.ctx.m,
            interior_r=frozenset(arcs_r),
            interior_s=frozenset(arcs_s),
            exterior=tuple(sorted(ext)),
        )
        for arcs_r, arcs_s, ext in zip(interior["R"], interior["S"], exterior)
    ]


def sample_one(res: InsideResult, rng: np.random.Generator) -> JointStructure:
    """Draw one joint structure with probability weight/Q_total.

    Raises:
        NumericalUnderflow: ``q_total`` is not finite and positive, or a
            visited component's cases do not sum to its stored value within
            1e-6 relative.
    """
    return _draw(res, [rng])[0]


def sample_batch(res: InsideResult, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` independent structures, reproducibly for a fixed seed.

    Draw ``k`` runs on its own generator, seeded with
    ``SeedSequence(seed, spawn_key=(k,))``, the ``k``-th child of
    ``SeedSequence(seed).spawn(n)``.  All draws walk the pending components
    together, so a component that several draws reach is scored once for all
    of them; each draw still takes its uniforms from its own generator in an
    order fixed by the draw alone.  Draw ``k`` is therefore
    ``sample_one(res, Generator(PCG64(SeedSequence(seed).spawn(n)[k])))``
    whatever ``n`` is, and the draws are walked in blocks of ``_BLOCK``
    without changing the batch; the blocks bound the generators held at
    once (each is ~1.7 KB).

    Raises:
        ValueError: n < 1.
        NumericalUnderflow: from any draw, annotated with the draw index.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    structures: list[JointStructure] = []
    for first in range(0, n, _BLOCK):
        rngs = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
            for k in range(first, min(n, first + _BLOCK))
        ]
        structures += _draw(res, rngs, first)
        del rngs
    return SampleBatch(
        structures=tuple(structures),
        seed=seed,
        model_fingerprint=res.model.fingerprint(),
        draw_count=n,
    )
