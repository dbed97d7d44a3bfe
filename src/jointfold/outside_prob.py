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
at once on the stacked tensor families of the inside store.

:func:`outside` runs only the 4D part of each transpose (``docs/grammar.md``
§6 counts its calls per wave).  It forms only the rows of the combined items
that the 4D part reads (NA + EX and HY over the gap block) and passes ci's
outside weight on to the items.  That fills every outside family, the block-placement
accumulators included, so hybrid probabilities come from it alone: the
block-placement mass is exactly the maximal-hybrid placement mass.  The
outside families are written with zeros over their reachable anchors when
they are allocated (all but each table's last R span), since nearly every
page of them is added into.
The base-pair pass runs on the first read of a base-pair table
(:class:`ProbTables`).  A second reverse sweep forms all of the combined
items again and runs the strand part of each transpose against the finished
outside families, then reads out the base-pair masses.

Base-pair probabilities combine three sources: tight-block closing arcs
(read off the block tensors directly), arcs inside secondary segments, and
exterior arcs (each arc is the last arc of exactly one anchored hybrid
prefix).  For the second, each strand factor's outside weight, the top-level
prefixes' included, is scattered back through the index that
``_Ctx.factors`` declares for it, onto the cells of the strand's 2D tables,
and the 2D outside (:meth:`SecEngine.outside`) sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    :func:`outside` fills only the 4D outside tables, which hybrid and
    target-site probabilities read.  The first read of any of the three
    base-pair arrays runs the base-pair pass (:func:`_base_pairs`) and
    computes all three; they are cached, so a later read returns the same
    arrays.
    """

    res: InsideResult
    tpf_max_deviation: float | None = None

    @property
    def z(self) -> float:
        return self.res.q_total

    @cached_property
    def _bpp(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _base_pairs(self.res)

    @property
    def bpp_r(self) -> np.ndarray:
        return self._bpp[0]

    @property
    def bpp_s(self) -> np.ndarray:
        return self._bpp[1]

    @property
    def bpp_ext(self) -> np.ndarray:
        return self._bpp[2]


@dataclass
class HybridProbMatrix:
    """Maximal-hybrid footprint probabilities, start-anchored: the footprint
    of spans p, q from ``(i, h)`` at ``total[p - 1, q - 1, i - 1, h - 1]``,
    the layout of the 4D tables (:class:`TensorStore`).  :meth:`p_hy`,
    :meth:`entries` and :meth:`region_mass` take and give 1-based
    coordinates.

    ``total`` is zero at every cell that is no footprint on the two strands
    (``i+p-1 <= n``, ``h+q-1 <= m``).
    """

    n: int
    m: int
    total: np.ndarray

    def p_hy(self, i: int, j: int, h: int, l: int) -> float:
        if j < i or l < h:
            return 0.0
        return float(self.total[j - i, l - h, i - 1, h - 1])

    def _above(self, threshold: float) -> tuple[np.ndarray, ...]:
        """The footprints above ``threshold`` as arrays ``i, j, h, l, p``,
        by descending probability, then by ``i, j, h, l``."""
        above = self.total > threshold
        p, q, i, h = (a + 1 for a in np.nonzero(above))
        w = self.total[above]
        j, l = i + p - 1, h + q - 1
        order = np.lexsort((l, h, j, i, -w))
        return tuple(a[order] for a in (i, j, h, l, w))

    def entries(self, threshold: float = 0.0) -> list[tuple[int, int, int, int, float]]:
        """(i, j, h, l, probability) for the cells above the threshold, by
        descending probability, then by ``i, j, h, l``."""
        return list(zip(*(a.tolist() for a in self._above(threshold))))

    def region_mass(self) -> tuple[np.ndarray, np.ndarray]:
        """The probability that a maximal hybrid covers exactly the region
        ``[i, j]`` of R, and ``[h, l]`` of S: the sum of ``p_hy`` over the
        partner-strand footprints.  Each cell adds its footprints in the
        order of :meth:`entries`."""
        i, j, h, l, w = self._above(0.0)
        mass_r, mass_s = np.zeros((self.n + 2, self.n + 2)), np.zeros((self.m + 2, self.m + 2))
        np.add.at(mass_r, (i, j), w)
        np.add.at(mass_s, (h, l), w)
        return mass_r, mass_s


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


def _out(res: InsideResult) -> dict[str, np.ndarray]:
    """The outside families in the store, the targets of the 4D part of the
    transposes.  Read from the store at each use: a second :func:`outside` on
    the same result replaces them, with the same values, and frees the first
    call's."""
    return {f: res.store.stacks[o] for f, o in _OUT_OF.items()}


def _transpose(res: InsideResult, out: dict[str, np.ndarray], strand: bool = False) -> None:
    """One part of the transpose of every wave, in reverse fill order: the
    4D part, or with ``strand`` the strand part."""
    src = _operands(res.store, res.ctx)
    for p, q in reversed(_waves(res.ctx.n, res.ctx.m)):
        _transpose_wave(src, out, _Wave(res.ctx, p, q), strand)


# -- the base-pair pass --------------------------------------------------------


def _base_pairs(res: InsideResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``bpp_r``, ``bpp_s`` and ``bpp_ext`` from the finished outside
    families."""
    out, z = _strand_weights(res), res.q_total
    return (_arc_mass(res, res.sec_r, out) / z, _arc_mass(res, res.sec_s, out) / z,
            _exterior_mass(res) / z)


def _strand_weights(res: InsideResult) -> dict[str, np.ndarray]:
    """The outside weight of every strand factor that carries some, by name.
    A second reverse sweep runs the strand part of the transposes
    (``_SEGMENTS``) against the finished outside families.  The prefixes get
    the top-level chains right of them; span 0 is the strand without
    interaction, ``q(1, n)`` beside ``q(1, m)``.  The closing-arc mass
    ``[span, start]`` of the tight blocks (R-closed and S-closed kinds), read
    off the finished item accumulators, is the outside weight of the
    admissibility factors ``adm_*`` at spans 1..n."""
    ctx, stacks = res.ctx, res.store.stacks
    out = _out(res)
    out.update({k: np.zeros_like(getattr(ctx, k)) for k in _SEGMENTS})
    _transpose(res, out, True)
    wr, ws = ctx.prefix_r, ctx.prefix_s
    chains = _top_chains(res.store, ctx)
    out["prefix_r"] = np.concatenate((ws[:1], chains @ ws[1:]))
    out["prefix_s"] = np.concatenate((wr[:1], wr[1:] @ chains))
    o, v = stacks["out_items"], stacks["items"]
    for name, kinds, spec in (("adm_r", _R_CLOSED, "cpqih,cpqih->pi"),
                              ("adm_s", _S_CLOSED, "cpqih,cpqih->qh")):
        out[name] = np.zeros_like(getattr(ctx, name))
        np.einsum(spec, o[kinds], v[kinds], out=out[name][1:-1])
    return out


def _exterior_mass(res: InsideResult) -> np.ndarray:
    """Exterior-arc mass ``[i, h]`` of the hybrids.  The exterior arc of a
    hybrid is its last one, at the end ``(i+p-1, h+q-1)`` of its
    start-anchored cell ``[p - 1, q - 1, i - 1, h - 1]``."""
    n, m = res.ctx.n, res.ctx.m
    o, v = res.store.stacks["out_items"], res.store.stacks["items"]
    mass = np.einsum("cpqih,cpqih->pqih", o[_HY], v[_HY])
    p, q, i, h = np.nonzero(mass)
    ends = (i + p + 1) * (m + 2) + h + q + 1
    return np.bincount(ends, mass[p, q, i, h], (n + 2) * (m + 2)).reshape(n + 2, m + 2)


def _arc_mass(res: InsideResult, eng: SecEngine, out: dict[str, np.ndarray]) -> np.ndarray:
    """Base-pair mass of one strand's arcs ``[i, j]``.  The outside weight
    ``out`` of each of its strand factors, times the factor's weight, is
    scattered back through the factor's index into the engine's planes.  On
    the tables that seeds the 2D outside, which sweeps the arcs inside
    secondary segments; on the admissibility plane it is the mass of the
    tight blocks' closing arcs.  What lands on the other constant planes
    (unpaired and empty segments) is dropped."""
    acc = np.zeros(eng.planes.size)
    for name, (owner, index, weight) in res.ctx.factors.items():
        if owner is eng and name in out:
            np.add.at(acc, index, weight * out[name])
    planes = acc.reshape(-1, eng.n + 2, eng.n + 2)
    out2d = eng.outside(dict(zip(eng.kinds, planes)))
    adm = eng.offset["adm"] // planes[0].size
    return planes[adm] + eng.arc_probabilities(out2d, 1.0)


def outside(res: InsideResult, verify_conservation: bool = False) -> ProbTables:
    """Run the outside sweep and return the probability tables.

    The sweep fills the 4D outside tables, from which
    :func:`hybrid_probabilities` reads; the base-pair probabilities are
    computed when first read (:class:`ProbTables`).  With
    ``verify_conservation`` every component cell is recomputed from its
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
    ctx, budget = res.ctx, res.memory_budget_bytes
    n, m = ctx.n, ctx.m
    est = estimate_memory_bytes(n, m, include_outside=True)
    if budget is not None and est > budget:
        raise CapacityExceeded(est, budget)
    res.store.alloc_families(_OUT_FAMILIES, populate=True)
    # the top-level chains of spans p, q that end at (n, m) get the prefixes
    # q(1, n-p) and q(1, m-q) left of them
    chain = res.store.stacks["out_chain"]
    chain[_NA_HY, 0, :, :, n - 1, m - 1] += ctx.prefix_r[1:, None] * ctx.prefix_s[1:]
    _transpose(res, _out(res))

    tpf = None
    if verify_conservation:
        tpf = verify_reconstruction(res, rel_tol=1e-9)

    return ProbTables(res=res, tpf_max_deviation=tpf)


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
    rows = []
    for strand, mass in zip("RS", hyb.region_mass()):
        # a region that no footprint covers is no row, whatever the threshold
        a, b = np.nonzero(mass > max(threshold, 0.0))
        rows += map(TargetRow, [strand] * len(a), a.tolist(), b.tolist(), mass[a, b].tolist())
    rows.sort(key=lambda r: (-r.probability, r.strand, r.start, r.end))
    return TargetTable(rows=rows, threshold=threshold)
