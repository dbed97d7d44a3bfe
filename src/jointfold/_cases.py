"""Per-cell production cases of the inside grammar.

This is the transcription of exactly the productions the vectorised wave
fills in :mod:`jointfold.grammar_inside` implement.  The stochastic sampler
draws from these cases, and the consistency checks recompute every tensor
cell from them; any drift between the two formulations fails the
reconstruction and conservation tests.

Components are tuples:

* ``("top",)``                                 - the full joint ensemble
* ``("hy", cls, i, j, h, l)``                  - anchored hybrid run
* ``("vee", ys, i, j, h, l)``                  - tight block closed on R
* ``("tri", yr, i, j, h, l)``                  - tight block closed on S
* ``("box", i, j, h, l)``                      - tight block closed on both
* ``("chain", parts, name, a, b, c, d)``       - block chain, first item at (a,c)
* ``("gap", after, name, x, b, y, d)``         - inter-item segments + rest
* ``("sec", sid, kind, i, j)``                 - secondary segment table cell
* ``("unp", sid, cls, i, j)``                  - forced all-unpaired segment

A case is ``(weight, children, emissions)``; the component value is the sum
over cases of the weight times the product of child values.  ``emissions``
are the arcs fixed by choosing the case: ``("ext", i, h)``, ``("arc_r", i,
j)`` or ``("arc_s", h, l)``.

The few-case kinds (``top`` and the items) list their cases as tuples.  A
``chain`` or ``gap`` component has O(NM) cases, so it gives them as one
weight vector instead (:func:`scored_cases`), the weight times the child
values of every case, read as slices of the stored child tensors:

* chain: axes (item kind, terminal/continued, x, y) for the first item
  ``(a..x, c..y)`` of kind hy/vee/tri/box.  The item comes from the
  start-anchored item stack at ``(a, c)`` times its branch factor; a
  terminal case multiplies the end-anchored tails ``ctx.tail_r``/
  ``ctx.tail_s`` at ``(b, d)``, a continued case the gap row (``ghy`` after
  a hybrid, else ``gna``) at ``(b, d)``.  Entries that are not cases (a
  part the component excludes, a flush tail that is not empty, a continued
  case with nothing left to follow) hold 0;
* gap: axes (case, x1, y1) for the segments ``x..x1-1`` and ``y..y1-1``
  from ``ctx.sq_any``/``sq_ge1``/``sq_unp`` times the chain parts that
  start at ``(x1, y1)``; one case after a tight block, three after a hybrid
  (``_GAP_CASES``).

None of these reads the fill's combined items or its chain sums (the stored
``CH_all``, the formed ``CH_nohy``), so summing a vector is an independent
check of the stored cell.  :func:`decode_case` maps a vector index back to
its case tuple, and :func:`component_cases` decodes every index, so the
cases are written down once.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, partial

import numpy as np

from .grammar_inside import HY_CLASSES, LABELS, InsideResult

ALL_PARTS = ("hy", "na", "nb")
# axis 0 of a chain weight vector; axis 1 is terminal (0) / continued (1)
_ITEM_KINDS = ("hy", "vee", "tri", "box")
_LABEL_AXIS = {name: k for k, name in enumerate(LABELS)}

_SEG_ANY = {"E": "q", "K": "qk"}
_SEG_GE1 = {"E": "q1", "K": "q1k"}
_PART_FAMILY = {"hy": "chy", "na": "cna", "nb": "cnb"}

# The cases of a gap, one per plane of its weight vector: the R segment
# x..x1-1, the S segment y..y1-1 (any structure, at least one branch, or all
# unpaired) and the parts of the chain that follows from (x1, y1).  After a
# hybrid, a segment holds a branch or the next item is no hybrid: a hybrid
# after only unpaired bases would extend the first one.
_GAP_CASES = {
    "na": (("any", "any", ALL_PARTS),),
    "hy": (("ge1", "any", ALL_PARTS), ("unp", "ge1", ALL_PARTS),
           ("unp", "unp", ("na", "nb"))),
}


def component_value(res: InsideResult, comp: tuple) -> float:
    kind = comp[0]
    if kind == "top":
        return res.q_total
    if kind in ("hy", "vee", "tri"):
        return res.value((kind, comp[1]), *comp[2:])
    if kind == "box":
        return res.value(("box",), *comp[1:])
    if kind == "chain":
        _, parts, name, a, b, c, d = comp
        return res.chain_value(parts, name, a, b, c, d)
    if kind == "gap":
        _, after, name, x, b, y, d = comp
        return res.value(("ghy" if after == "hy" else "gna", name), x, b, y, d)
    if kind == "sec":
        _, sid, table, i, j = comp
        return (res.sec_r if sid == "R" else res.sec_s).value(table, i, j)
    if kind == "unp":
        _, sid, cls, i, j = comp
        if j < i:
            return 1.0
        u = res.ctx.ku if cls == "K" else 1.0
        return u ** (j - i + 1)
    raise KeyError(f"unknown component {comp!r}")


def _chain_item(res, lab, kind, a, x, c, y):
    """Item component, branch-weight factor and arc emissions for one kind."""
    ctx = res.ctx
    wbr_r = ctx.kb if lab.class_r == "K" else 1.0
    wbr_s = ctx.kb if lab.class_s == "K" else 1.0
    if kind == "hy":
        return ("hy", lab.hy_class, a, x, c, y), 1.0
    if kind == "vee":
        return ("vee", lab.class_s, a, x, c, y), wbr_r
    if kind == "tri":
        return ("tri", lab.class_r, a, x, c, y), wbr_s
    return ("box", a, x, c, y), wbr_r * wbr_s


def _part_of(lab, kind: str, terminal: bool) -> str:
    if kind == "hy":
        return "hy"
    if terminal:
        if lab.tail_s == "flush" and kind in ("tri", "box"):
            return "nb"
        if lab.tail_r == "flush" and kind in ("vee", "box"):
            return "nb"
    return "na"


def component_cases(res: InsideResult, comp: tuple) -> list[tuple]:
    """All mutually exclusive cases of one component cell."""
    ctx = res.ctx
    kind = comp[0]
    out: list[tuple] = []

    if kind == "top":
        n, m = ctx.n, ctx.m
        out.append((1.0, [("sec", "R", "q", 1, n), ("sec", "S", "q", 1, m)], []))
        for a in range(1, n + 1):
            for c in range(1, m + 1):
                out.append(
                    (
                        1.0,
                        [
                            ("sec", "R", "q", 1, a - 1),
                            ("sec", "S", "q", 1, c - 1),
                            ("chain", ALL_PARTS, "top", a, n, c, m),
                        ],
                        [],
                    )
                )
        return out

    if kind == "hy":
        _, cls, i, j, h, l = comp
        if i == j and h == l:
            w = ctx.wext[i, h]
            if w != 0.0:
                out.append((w, [], [("ext", i, h)]))
            return out
        if i == j or h == l:
            return out
        wlast = ctx.wext[j, l]
        if wlast == 0.0:
            return out
        for i1 in range(i, j):
            for h1 in range(h, l):
                step = ctx.step[cls][j - i1 - 1, l - h1 - 1]
                out.append(
                    (wlast * step, [("hy", cls, i, i1, h, h1)], [("ext", j, l)])
                )
        return out

    if kind == "vee":
        _, ys, i, j, h, l = comp
        if ctx.adm_r[j - i + 1, i] == 0.0:
            return out
        name = f"vee_{ys}"
        for a in range(i + 1, j):
            out.append(
                (
                    ctx.ki,
                    [
                        ("sec", "R", "qk", i + 1, a - 1),
                        ("chain", ("hy", "na"), name, a, j - 1, h, l),
                    ],
                    [("arc_r", i, j)],
                )
            )
        return out

    if kind == "tri":
        _, yr, i, j, h, l = comp
        if ctx.adm_s[l - h + 1, h] == 0.0:
            return out
        name = f"tri_{yr}"
        for c in range(h + 1, l):
            out.append(
                (
                    ctx.ki,
                    [
                        ("sec", "S", "qk", h + 1, c - 1),
                        ("chain", ("hy", "na"), name, i, j, c, l - 1),
                    ],
                    [("arc_s", h, l)],
                )
            )
        return out

    if kind == "box":
        _, i, j, h, l = comp
        if ctx.adm_r[j - i + 1, i] == 0.0 or ctx.adm_s[l - h + 1, h] == 0.0:
            return out
        for a in range(i + 1, j):
            for c in range(h + 1, l):
                out.append(
                    (
                        ctx.ki * ctx.ki,
                        [
                            ("sec", "R", "qk", i + 1, a - 1),
                            ("sec", "S", "qk", h + 1, c - 1),
                            ("chain", ALL_PARTS, "box", a, j - 1, c, l - 1),
                        ],
                        [("arc_r", i, j), ("arc_s", h, l)],
                    )
                )
        return out

    if kind in ("chain", "gap"):
        weights, decode = scored_cases(res, comp)
        return [case for t in range(weights.size) if (case := decode(t)) is not None]

    raise KeyError(f"no cases for component {comp!r}")


def _item_slices(res: InsideResult, lab, a: int, c: int, P: int, Q: int) -> np.ndarray:
    """[item kind, x - a, y - c]: each first item ``(a..x, c..y)`` of a chain
    times its branch factor, read from the start-anchored item tensors."""
    out = np.empty((len(_ITEM_KINDS), P, Q))
    for row, kind in zip(out, _ITEM_KINDS):
        item, wbr = _chain_item(res, lab, kind, a, a, c, c)
        np.multiply(res.store[item[:-4]][1 : P + 1, 1 : Q + 1, a, c], wbr, out=row)
    return out


@lru_cache(maxsize=None)
def _part_mask(lab, parts: tuple) -> np.ndarray:
    """[item kind, terminal/continued]: 1 where the case belongs to ``parts``.

    Read-only, because every caller shares the cached array."""
    mask = np.array([
        [_part_of(lab, kind, terminal) in parts for terminal in (True, False)]
        for kind in _ITEM_KINDS
    ], dtype=float)
    mask.flags.writeable = False
    return mask


def _chain_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    _, parts, name, a, b, c, d = comp
    lab = LABELS[name]
    store, ctx = res.store, res.ctx
    P, Q = b - a + 1, d - c + 1
    L = _LABEL_AXIS[name]
    items = _item_slices(res, lab, a, c, P, Q)
    w = np.empty((len(_ITEM_KINDS), 2, P, Q))
    # terminal: the tails x+1..b and y+1..d, end anchored at (b, d)
    w[:, 0] = items * np.multiply.outer(
        ctx.tail_r[L, P - 1 :: -1, b], ctx.tail_s[L, Q - 1 :: -1, d])
    # continued: the gap x+1..b, y+1..d, end anchored at (b, d)
    w[0, 1] = items[0] * store[("ghy", name)][P - 1 :: -1, Q - 1 :: -1, b, d]
    w[1:, 1] = items[1:] * store[("gna", name)][P - 1 :: -1, Q - 1 :: -1, b, d]
    w[:, 1, P - 1, :] = 0.0
    w[:, 1, :, Q - 1] = 0.0
    w *= _part_mask(lab, parts)[:, :, None, None]
    return w.ravel()


def _segment_weights(ctx, seg: str, sid: str, cls: str, start: int, size: int):
    """Weights of the segments ``start..start+g-1``, g = 0..size-1."""
    table = {"any": ctx.sq_any, "ge1": ctx.sq_ge1, "unp": ctx.sq_unp}[seg]
    return table[sid][cls][:size, start]


def _gap_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    _, after, name, x, b, y, d = comp
    lab = LABELS[name]
    P, Q = b - x + 1, d - y + 1
    # the chain parts over (x1..b, y1..d), end anchored at (b, d)
    cut = (slice(P, 0, -1), slice(Q, 0, -1), b, d)
    cases = _GAP_CASES[after]
    w = np.empty((len(cases), P, Q))
    for plane, (seg_r, seg_s, parts) in zip(w, cases):
        np.multiply.outer(_segment_weights(res.ctx, seg_r, "R", lab.class_r, x, P),
                          _segment_weights(res.ctx, seg_s, "S", lab.class_s, y, Q),
                          out=plane)
        plane *= sum(res.store[(_PART_FAMILY[part], name)][cut]
                     for part in parts if part != "nb" or lab.has_nb)
    return w.ravel()


def _segment(seg: str, sid: str, cls: str, i: int, j: int) -> tuple:
    if seg == "unp":
        return ("unp", sid, cls, i, j)
    return ("sec", sid, (_SEG_ANY if seg == "any" else _SEG_GE1)[cls], i, j)


def decode_case(res: InsideResult, comp: tuple, t: int) -> tuple | None:
    """The case at index ``t`` of a chain or gap weight vector, or ``None``
    where the vector holds a structural 0 (see the module docstring)."""
    kind, tag, name, x, b, y, d = comp  # tag: a chain's parts, a gap's after
    lab = LABELS[name]
    P, Q = b - x + 1, d - y + 1
    plane, cell = divmod(t, P * Q)
    x1, y1 = divmod(cell, Q)
    x1 += x
    y1 += y
    if kind == "chain":
        item_kind = _ITEM_KINDS[plane // 2]
        terminal = plane % 2 == 0
        if _part_of(lab, item_kind, terminal) not in tag:
            return None
        item, wbr = _chain_item(res, lab, item_kind, x, x1, y, y1)
        if not terminal:
            if x1 == b or y1 == d:
                return None
            after = "hy" if item_kind == "hy" else "na"
            return (wbr, [item, ("gap", after, name, x1 + 1, b, y1 + 1, d)], [])
        children = [item]
        for sid, tail, cls, end, last in (
            ("R", lab.tail_r, lab.class_r, x1, b), ("S", lab.tail_s, lab.class_s, y1, d)
        ):
            if tail == "free":
                children.append(("sec", sid, _SEG_ANY[cls], end + 1, last))
            elif end != last:
                return None
        return (wbr, children, [])
    seg_r, seg_s, parts = _GAP_CASES[tag][plane]
    children = [_segment(seg_r, "R", lab.class_r, x, x1 - 1),
                _segment(seg_s, "S", lab.class_s, y, y1 - 1),
                ("chain", parts, name, x1, b, y1, d)]
    return (1.0, children, [])


def scored_cases(
    res: InsideResult, comp: tuple
) -> tuple[np.ndarray, Callable[[int], tuple]]:
    """The value of every case of a 4D component (its weight times its child
    values) and a map from case index to case tuple.

    Chain and gap components build their weight vector from tensor slices
    and decode an index on demand; the other kinds score their case list.
    """
    kind = comp[0]
    if kind in ("chain", "gap"):
        weights = _chain_weights(res, comp) if kind == "chain" else _gap_weights(res, comp)
        return weights, partial(decode_case, res, comp)
    cases = component_cases(res, comp)
    return np.array([case_value(res, case) for case in cases]), cases.__getitem__


def case_value(res: InsideResult, case: tuple) -> float:
    w, children, _em = case
    for child in children:
        w *= component_value(res, child)
        if w == 0.0:
            return 0.0
    return w


def recompute_value(res: InsideResult, comp: tuple) -> float:
    return float(scored_cases(res, comp)[0].sum())


def iter_all_components(res: InsideResult):
    """Every 4D component cell, for reconstruction/conservation sweeps."""
    n, m = res.ctx.n, res.ctx.m
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for h in range(1, m + 1):
                for l in range(h, m + 1):
                    cell = (i, j, h, l)
                    for cls in HY_CLASSES:
                        yield ("hy", cls, *cell)
                    for ys in ("E", "K"):
                        yield ("vee", ys, *cell)
                        yield ("tri", ys, *cell)
                    yield ("box", *cell)
                    for name in LABELS:
                        for part in ALL_PARTS:
                            if part == "nb" and not LABELS[name].has_nb:
                                continue
                            yield ("chain", (part,), name, *cell)
                        for after in ("hy", "na"):
                            yield ("gap", after, name, *cell)


def verify_reconstruction(res: InsideResult, rel_tol: float = 1e-12) -> float:
    """Recompute every cell from its cases; return the worst relative error.

    This is the per-cell check that the mutually exclusive right-hand-side
    cases of every recursion sum to the stored left-hand side.
    """
    worst = 0.0
    for comp in iter_all_components(res):
        stored = component_value(res, comp)
        recomputed = recompute_value(res, comp)
        scale = max(abs(stored), abs(recomputed), 1e-300)
        err = abs(stored - recomputed) / scale
        if stored == 0.0 and recomputed == 0.0:
            err = 0.0
        worst = max(worst, err)
        if err > rel_tol:
            raise AssertionError(
                f"cell {comp} reconstructs to {recomputed!r}, stored {stored!r}"
            )
    top = recompute_value(res, ("top",))
    scale = max(abs(top), abs(res.q_total))
    worst = max(worst, abs(top - res.q_total) / scale)
    return worst
