"""Outside pass: component, base-pair, hybrid and target-site probabilities.

The sweep visits waves in the reverse of the inside order and applies the
transpose of every production that :mod:`jointfold.grammar_inside` declares
in ``_WAVE``; nothing here restates a production.  For ``C = einsum(A, B,
...)`` the transpose adds ``einsum(C_out, B, ... -> A)`` into A's outside
target at A's own index: the outside family of a stored operand, an
accumulator shaped like the factor for a strand factor of ``_Ctx``, nothing
for a constant.  The outside value of a cell times its inside value, divided
by the total partition function, is the probability that a parse contains
the component at that cell; the top-level placements seed the sweep.  Like
the fill, each wave transposes every chain label, hybrid class and tight kind
at once on the stacked tensor families of the inside store: at most 15
``numpy.einsum`` calls and 2 matrix products per wave.  The readouts into the
base-pair masses take 3 einsum calls once the sweep is done.

Base-pair probabilities combine three sources: tight-block closing arcs
(read off the block tensors directly), arcs inside secondary segments, and
exterior arcs (each arc is the last arc of exactly one anchored hybrid
prefix).  For the second, each strand factor's outside weight, the top-level
prefixes' included, is scattered back through the index that
``_Ctx.factors`` declares for it, onto the cells of the strand's 2D tables,
and the 2D outside (:meth:`SecEngine.outside`) sweeps them.  Hybrid
probabilities come from the block-placement accumulator only, which is
exactly the maximal-hybrid placement mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._cases import verify_reconstruction
from .grammar_inside import (
    _HY,
    _NA_HY,
    _OUT_FAMILIES,
    _OUT_OF,
    _R_CLOSED,
    _S_CLOSED,
    _SEGMENTS,
    HY_CLASSES,
    CapacityExceeded,
    InsideResult,
    _operands,
    _top_chains,
    _transpose_wave,
    _Wave,
    _waves,
    estimate_memory_bytes,
)
from .secfold import SecEngine, check_partition_function

__all__ = [
    "ProbTables",
    "HybridProbMatrix",
    "TargetRow",
    "TargetTable",
    "outside",
    "hybrid_probabilities",
    "target_sites",
]


@dataclass
class ProbTables:
    """Probability tables produced by the outside pass.

    ``bpp_r``/``bpp_s`` are (L+2)x(L+2) arrays over interior arcs,
    ``bpp_ext`` is (N+2)x(M+2) over exterior arcs; all entries in [0,1].
    """

    res: InsideResult
    z: float
    bpp_r: np.ndarray
    bpp_s: np.ndarray
    bpp_ext: np.ndarray
    tpf_max_deviation: float | None = None


@dataclass
class HybridProbMatrix:
    """Maximal-hybrid footprint probabilities, start-anchored ``[p, q, i, h]``."""

    n: int
    m: int
    total: np.ndarray

    def p_hy(self, i: int, j: int, h: int, l: int) -> float:
        if j < i or l < h:
            return 0.0
        return float(self.total[j - i + 1, l - h + 1, i, h])

    def entries(self, threshold: float = 0.0):
        """Yield (i, j, h, l, probability) for cells above the threshold."""
        idx = np.argwhere(self.total > threshold)
        rows = []
        for p, q, i, h in idx:
            if 1 <= i and i + p - 1 <= self.n and 1 <= h and h + q - 1 <= self.m:
                rows.append((int(i), int(i + p - 1), int(h), int(h + q - 1),
                             float(self.total[p, q, i, h])))
        rows.sort(key=lambda r: (-r[4], r[0], r[1], r[2], r[3]))
        return rows


@dataclass(frozen=True)
class TargetRow:
    strand: str  # "R" | "S"
    start: int
    end: int
    probability: float


@dataclass
class TargetTable:
    """Per-region interaction probabilities, sorted descending."""

    rows: list[TargetRow] = field(default_factory=list)
    threshold: float = 0.1

    @property
    def p_opt(self) -> TargetRow | None:
        return self.rows[0] if self.rows else None


class _OutSweep:
    def __init__(self, res: InsideResult):
        self.res = res
        self.ctx = res.ctx
        self.store = res.store
        self.n, self.m = self.ctx.n, self.ctx.m
        # the outside target of every operand the productions transpose into:
        # the outside families, and one accumulator per strand factor that
        # carries outside weight
        stacks = self.store.stacks
        self.out = {f: stacks[o] for f, o in _OUT_OF.items()}
        self.out.update({k: np.zeros_like(getattr(self.ctx, k)) for k in _SEGMENTS})

    # -- seeds ---------------------------------------------------------------

    def seed_top(self) -> None:
        """Outside weights of the top level: each top-level chain ``[p, q]``
        ending at ``(n, m)`` with the prefixes ``q(1, n-p)`` and ``q(1,
        m-q)`` left of it, and those prefixes; span 0 is the strand without
        interaction, ``q(1, n)`` beside ``q(1, m)``."""
        n, m = self.n, self.m
        wr, ws = self.ctx.prefix_r, self.ctx.prefix_s
        self.out["chain"][_NA_HY, 0, 1 : n + 1, 1 : m + 1, n, m] += wr[1:, None] * ws[1:]
        chains = _top_chains(self.store, self.ctx)
        self.out["prefix_r"] = np.concatenate((ws[:1], chains @ ws[1:]))
        self.out["prefix_s"] = np.concatenate((wr[:1], wr[1:] @ chains))

    # -- readouts ------------------------------------------------------------

    def readouts(self) -> None:
        """Exterior-arc mass of the hybrids and closing-arc mass of the tight
        blocks (R-closed and S-closed kinds), read off the finished item
        accumulators once the sweep is done.  The exterior arc of a hybrid is
        its last one, at the end ``(i+p-1, h+q-1)`` of its start-anchored
        cell ``[p, q, i, h]``.  The closing-arc mass ``[span, start]`` of a
        strand is the outside weight of its admissibility factor ``adm_*``."""
        n, m = self.n, self.m
        o, v = self.out["items"], self.store.stacks["items"]
        self.out["adm_r"] = np.einsum("cpqih,cpqih->pi", o[_R_CLOSED], v[_R_CLOSED])
        self.out["adm_s"] = np.einsum("cpqih,cpqih->qh", o[_S_CLOSED], v[_S_CLOSED])
        mass = np.einsum("cpqih,cpqih->pqih", o[_HY], v[_HY])
        p, q, i, h = np.nonzero(mass)
        ends = (i + p - 1) * (m + 2) + h + q - 1
        self.bpp_ext_mass = np.bincount(ends, mass[p, q, i, h], (n + 2) * (m + 2)).reshape(
            n + 2, m + 2)

    # -- finalisation --------------------------------------------------------

    def arc_mass(self, eng: SecEngine) -> np.ndarray:
        """Base-pair mass of one strand's arcs ``[i, j]``.  The outside weight
        of each of its strand factors, times the factor's weight, is
        scattered back through the factor's index into the engine's planes.
        On the tables that seeds the 2D outside, which sweeps the arcs inside
        secondary segments; on the admissibility plane it is the mass of the
        tight blocks' closing arcs.  What lands on the other constant planes
        (unpaired and empty segments) is dropped."""
        acc = np.zeros(eng.planes.size)
        for name, (owner, index, weight) in self.ctx.factors.items():
            if owner is eng and name in self.out:
                np.add.at(acc, index, weight * self.out[name])
        planes = acc.reshape(-1, eng.n + 2, eng.n + 2)
        out2d = eng.outside(dict(zip(eng.kinds, planes)))
        adm = eng.offset["adm"] // planes[0].size
        return planes[adm] + eng.arc_probabilities(out2d, 1.0)


def outside(res: InsideResult, verify_conservation: bool = False) -> ProbTables:
    """Run the outside sweep and assemble all probability tables.

    With ``verify_conservation`` every component cell is recomputed from its
    production cases (conditional probabilities summing to one); the worst
    relative deviation lands in ``ProbTables.tpf_max_deviation``.  Intended
    for small instances.

    Raises:
        NumericalUnderflow: ``res.q_total`` is not finite and positive.
        CapacityExceeded: the inside and outside tables together exceed the
            ``memory_budget_bytes`` that ``res`` was filled under; nothing
            is allocated then.
    """
    check_partition_function(res.q_total)
    budget = res.memory_budget_bytes
    est = estimate_memory_bytes(res.ctx.n, res.ctx.m, include_outside=True)
    if budget is not None and est > budget:
        raise CapacityExceeded(est, budget)
    res.store.alloc_families(_OUT_FAMILIES)
    sweep = _OutSweep(res)
    sweep.seed_top()
    n, m = res.ctx.n, res.ctx.m
    src = _operands(res.store, res.ctx)
    for p, q in reversed(_waves(n, m)):
        w = _Wave(res.ctx, p, q)
        _transpose_wave(src, sweep.out, w)
    sweep.readouts()

    z = res.q_total
    bpp_r = sweep.arc_mass(res.sec_r) / z
    bpp_s = sweep.arc_mass(res.sec_s) / z
    bpp_ext = sweep.bpp_ext_mass / z

    tpf = None
    if verify_conservation:
        tpf = verify_reconstruction(res, rel_tol=1e-9)

    return ProbTables(
        res=res, z=z, bpp_r=bpp_r, bpp_s=bpp_s, bpp_ext=bpp_ext,
        tpf_max_deviation=tpf,
    )


def hybrid_probabilities(res: InsideResult, prob: ProbTables) -> HybridProbMatrix:
    """P(a maximal hybrid occupies exactly footprint (i..j, h..l)): the sum
    over the four hybrid classes, which are independent contributions."""
    store = res.store
    total = sum(store[("out", "hyb", cls)] * store[("hy", cls)] / prob.z for cls in HY_CLASSES)
    return HybridProbMatrix(n=res.ctx.n, m=res.ctx.m, total=total)


def target_sites(hyb: HybridProbMatrix, threshold: float = 0.1) -> TargetTable:
    """Aggregate hybrid probabilities into per-region target probabilities.

    A region's probability is the sum of ``p_hy`` over all partner-strand
    footprints.  Rows above the threshold are sorted by descending
    probability; ``p_opt`` is the top row.
    """
    mass_r: dict[tuple[int, int], float] = {}
    mass_s: dict[tuple[int, int], float] = {}
    for (i, j, h, l, w) in hyb.entries(0.0):
        mass_r[(i, j)] = mass_r.get((i, j), 0.0) + w
        mass_s[(h, l)] = mass_s.get((h, l), 0.0) + w
    rows = [
        TargetRow("R", i, j, w) for (i, j), w in mass_r.items() if w > threshold
    ] + [
        TargetRow("S", h, l, w) for (h, l), w in mass_s.items() if w > threshold
    ]
    rows.sort(key=lambda r: (-r.probability, r.strand, r.start, r.end))
    return TargetTable(rows=rows, threshold=threshold)
