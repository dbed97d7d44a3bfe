"""Shared test utilities: random sequences, randomized-weight models, 1-based
reads of the 4D tables and the scalar case references of the secondary and
4D grammars."""

from __future__ import annotations

import math

import numpy as np

from jointfold._cases import component_value, scored_cases
from jointfold.energy import EnergyModel
from jointfold.grammar_inside import InsideResult
from jointfold.secfold import SecEngine

BASES = "ACGU"


def random_seq(rng: np.random.Generator, length: int) -> str:
    return "".join(rng.choice(list(BASES)) for _ in range(length))


def au_rich_seq(rng: np.random.Generator, length: int) -> str:
    return "".join(rng.choice(["A", "U"]) for _ in range(length))


def random_model(rng: np.random.Generator, min_hairpin: int = 3,
                 **overrides) -> EnergyModel:
    """Positive randomized feature weights (energies in a tame range)."""

    def e() -> float:
        return float(rng.uniform(-1.2, 1.8))

    fields = dict(
        rt=1.0,
        min_hairpin=min_hairpin,
        hairpin_init=e(),
        hairpin_slope=float(rng.uniform(0.0, 0.6)),
        interior_init=e(),
        interior_slope=float(rng.uniform(0.0, 0.6)),
        stack_default=e(),
        multi_init=e(),
        multi_branch=e(),
        multi_unpaired=float(rng.uniform(0.0, 0.8)),
        kiss_init=e(),
        kiss_branch=e(),
        kiss_unpaired=float(rng.uniform(0.0, 0.8)),
        sigma0=e(),
        sigma=float(rng.uniform(0.2, 1.5)),
        beta3=float(rng.uniform(0.0, 0.9)),
        g_int_init=e(),
        g_int_slope=float(rng.uniform(0.0, 0.5)),
        ext_default=e(),
        stack_overrides={("GC", "CG"): e(), ("AU", "UA"): e()},
        ext_overrides={("G", "C"): e()},
    )
    fields.update(overrides)
    return EnergyModel(**fields)


# -- 1-based reads of the 4D tables ------------------------------------------


def at(*cell: int) -> tuple[int, ...]:
    """The index of the 4D table cell ``(span_r, span_s, anchor_r,
    anchor_s)``, given 1-based: every axis starts at 1 (TensorStore)."""
    return tuple(c - 1 for c in cell)


def padded(arr: np.ndarray) -> np.ndarray:
    """A copy of a 4D table ``(n, m, n, m)`` indexed 1-based: zero at span 0
    and at the anchors 0 and n + 1 (m + 1)."""
    return np.pad(arr, 1)


# -- the scalar case references -----------------------------------------------


def sec_adm(eng: SecEngine, i: int, j: int) -> bool:
    """Interior-arc admissibility: pair type plus hairpin size."""
    if j - i - 1 < eng.model.min_hairpin:
        return False
    return eng.model.pairable(eng.seq[i - 1], eng.seq[j - 1])


def sec_cases(eng: SecEngine, kind: str, i: int, j: int) -> list[tuple]:
    """All production cases of one secondary cell, written one cell at a
    time: the reference that the engine's declarations, its fill, its
    outside sweep and its sampler are checked against.

    Each case is ``(weight, children, own_arc)``, with children ``(kind, i,
    j)``; the cell value is the sum over cases of the weight times the
    product of the child values.  The cases are mutually exclusive and
    complete, and come in the order the sampler indexes them.
    """
    m, seq, bk = eng.model, eng.seq, eng.branch_kind
    out: list[tuple] = []

    def w_loop(p: int, q: int) -> float:  # the loop closed by (i, j) around (p, q)
        if p == i + 1 and q == j - 1:
            return m.w_stack(seq[i - 1] + seq[j - 1], seq[p - 1] + seq[q - 1])
        return m.w_interior(p - i - 1, j - q - 1)

    if kind in ("qb", "qend"):
        # qend is the last pair of a helix; its loop must not be a stack
        if not sec_adm(eng, i, j):
            return out
        out.append((m.w_hairpin(j - i - 1), (), (i, j)))
        inner = "qbh" if kind == "qend" else "qb"
        for p in range(i + 1, j):
            for q in range(p + 1, j):
                if kind == "qb" or not (p == i + 1 and q == j - 1):
                    out.append((w_loop(p, q), ((inner, p, q),), (i, j)))
        for k in range(i + 2, j - 1):
            out.append((m.w_multi_init, (("qm", i + 1, k - 1), ("qm1", k, j - 1)), (i, j)))
    elif kind == "qbh":
        # helix of length >= 2 starting at (i, j)
        if not (sec_adm(eng, i, j) and sec_adm(eng, i + 1, j - 1)):
            return out
        w = m.w_stack(seq[i - 1] + seq[j - 1], seq[i] + seq[j - 2])
        out.append((w, (("qend", i + 1, j - 1),), (i, j)))
        out.append((w, (("qbh", i + 1, j - 1),), (i, j)))
    elif kind == "qm1":
        # exactly one branch starting at i, trailing unpaired bases
        for l in range(i + 1, j + 1):
            out.append((m.w_multi_branch * m.w_multi_unpaired ** (j - l), ((bk, i, l),), None))
    elif kind == "qm":
        # split at the last branch; prefix all-unpaired or >= 1 branch
        for k in range(i, j + 1):
            out.append((m.w_multi_unpaired ** (k - i), (("qm1", k, j),), None))
            if k > i:
                out.append((1.0, (("qm", i, k - 1), ("qm1", k, j)), None))
    elif kind in ("q", "q1", "qk", "q1k"):
        if j < i:
            return out
        kiss = kind in ("qk", "q1k")
        wu = m.w_kiss_unpaired if kiss else 1.0
        wb = m.w_kiss_branch if kiss else 1.0
        base = "qk" if kiss else "q"
        out.append((wu, ((kind, i, j - 1),), None))
        # last branch (k, j); empty prefix is the base value q(i, i-1) = 1
        for k in range(i, j):
            out.append((wb, ((base, i, k - 1), (bk, k, j)), None))
    else:
        raise KeyError(f"unknown table kind {kind!r}")
    return out


def sec_case_value(eng: SecEngine, case: tuple) -> float:
    """The weight of one :func:`sec_cases` case times its child values."""
    w, children, _arc = case
    return w * math.prod(eng.value(*c) for c in children)


def component_cases(res: InsideResult, comp: tuple) -> list[tuple]:
    """All mutually exclusive cases of one 4D component cell, decoded from
    its weight vector."""
    weights, decode = scored_cases(res, comp)
    return [case for t in range(weights.size) if (case := decode(t)) is not None]


def case_value(res: InsideResult, case: tuple) -> float:
    """The weight of one 4D case times its child values."""
    w, children, _em = case
    for child in children:
        w *= component_value(res, child)
        if w == 0.0:
            return 0.0
    return w
