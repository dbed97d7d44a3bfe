"""Stochastic traceback: exact Boltzmann samples of joint structures.

At each component the case distribution is the partition-function ratio of
the mutually exclusive decomposition cases (:mod:`jointfold._cases`); a draw
picks one case with a single uniform against the prefix sums of the positive
cases, fixes the case's arcs and continues into its children.

All draws of a call walk together.  A priority queue holds the distinct
pending 4D components, each with the list of draws waiting on it; popping a
component builds and scores its cases once, however many draws wait on it,
and then picks one case per waiting draw.  The queue puts larger span sums
``(j-i+1)+(l-h+1)`` first and, at equal span sum, ``top``, then ``gap``, then
``chain``, then the items.  Every child of a case comes strictly later in
this order than its parent, so a component is popped only after all of its
parents and is resolved once.  Secondary-segment children (``sec``) are
sampled per draw as soon as their case is picked; forced-unpaired segments
(``unp``) fix no arcs.

Each draw consumes uniforms from its own generator only, and it visits its
own components in the fixed queue order, which depends on nothing but the
draw itself.  So a draw does not depend on the batch size or on the other
draws of the batch.  The traversal order does not affect the sampled
distribution.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._cases import case_value, component_cases, component_value
from .grammar_inside import InsideResult
from .seq_model import JointStructure

__all__ = [
    "NumericalUnderflow",
    "SampleBatch",
    "sample_one",
    "sample_batch",
]

# queue rank of a kind among components of equal span sum; items rank last
_RANK = {"top": 0, "gap": 1, "chain": 2}
# draws walked together by one sample_batch pass; bounds the generators held
_BLOCK = 4096


class NumericalUnderflow(RuntimeError):
    """A case distribution failed to normalise (inside tables corrupt)."""


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of sampled structures."""

    structures: tuple[JointStructure, ...]
    seed: int
    model_fingerprint: str
    draw_count: int


def _queue_key(res: InsideResult, comp: tuple) -> tuple:
    """Pop order of a 4D component: larger span sums first, then by kind."""
    if comp[0] == "top":
        span = res.ctx.n + res.ctx.m
    else:
        i, j, h, l = comp[-4:]
        span = (j - i + 1) + (l - h + 1)
    return (-span, _RANK.get(comp[0], 3), comp)


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
    if not (math.isfinite(res.q_total) and res.q_total > 0.0):
        raise NumericalUnderflow(f"partition function is {res.q_total!r}")
    engines = {"R": res.sec_r.engine, "S": res.sec_s.engine}
    # arcs fixed so far, one list per draw: interior on R, on S, exterior
    interior = {"R": [[] for _ in rngs], "S": [[] for _ in rngs]}
    exterior = [[] for _ in rngs]
    top = ("top",)
    pending: dict[tuple, list[int]] = {top: list(range(len(rngs)))}
    queue = [_queue_key(res, top)]

    while queue:
        comp = heapq.heappop(queue)[2]
        waiting = pending.pop(comp)
        total = component_value(res, comp)
        cases = component_cases(res, comp)
        values = [case_value(res, case) for case in cases]
        acc = float(sum(values))
        if not np.isfinite(acc) or abs(acc - total) > 1e-6 * max(abs(total), 1e-300):
            raise NumericalUnderflow(
                f"draw {first + min(waiting)}: component {comp}: "
                f"cases sum to {acc!r}, table holds {total!r}"
            )
        positive = [case for case, v in zip(cases, values) if v > 0.0]
        if not positive:
            raise NumericalUnderflow(
                f"draw {first + min(waiting)}: component {comp}: no positive case"
            )
        prefix = list(accumulate(v for v in values if v > 0.0))
        # free each case list before the next component's is built
        del cases, values
        last = len(prefix) - 1
        for k in waiting:
            rng = rngs[k]
            u = rng.random() * acc
            _w, children, emissions = positive[min(bisect_left(prefix, u), last)]
            for em in emissions:
                if em[0] == "ext":
                    exterior[k].append((em[1], em[2]))
                else:
                    interior["R" if em[0] == "arc_r" else "S"][k].append((em[1], em[2]))
            for child in children:
                kind = child[0]
                if kind == "unp":
                    continue
                if kind == "sec":
                    _, sid, table, i, j = child
                    if j >= i:
                        engines[sid].sample(table, i, j, rng, interior[sid][k])
                    continue
                if child in pending:
                    pending[child].append(k)
                else:
                    pending[child] = [k]
                    heapq.heappush(queue, _queue_key(res, child))
        del positive, prefix

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
