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

Every 4D kind scores its cases as one weight vector (:func:`scored_cases`):
the weight times the child values of every case, read as slices of the
stored tensor families (``store.stacks``), one gather per family.  Case
``t`` is the vector's entry ``t``, in C order of its axes:

* top: the case without a chain, then ``(a, c)`` for the top-level chain
  from ``(a, c)`` to ``(n, m)`` after the structures of ``1..a-1`` and
  ``1..c-1`` (``ctx.prefix_r``/``prefix_s``);
* hy: ``(i1, h1)`` for the run ``(i..i1, h..h1)`` extended by the arc
  ``(j, l)`` (a single-arc cell has its one case);
* vee / tri: ``a`` (``c``), the first item of the enclosed chain after the
  segment ``i+1..a-1`` (``h+1..c-1``, from ``ctx.kq_r``/``kq_s``); box:
  ``(a, c)``;
* chain: (item kind, terminal/continued, x, y) for the first item
  ``(a..x, c..y)`` of kind hy/vee/tri/box.  The item comes from the
  start-anchored item stack at ``(a, c)`` times its branch factor; a
  terminal case multiplies the end-anchored tails ``ctx.tail_r``/
  ``ctx.tail_s`` at ``(b, d)``, a continued case the gap row (``ghy`` after
  a hybrid, else ``gna``) at ``(b, d)``.  Entries that are not cases (a
  part the component excludes, a flush tail that is not empty, a continued
  case with nothing left to follow) hold 0;
* gap: (case, x1, y1) for the segments ``x..x1-1`` and ``y..y1-1`` from
  ``ctx.gap_r``/``gap_s`` (or the bare ``ctx.bare_r``/``bare_s``) times the
  chain parts that start at ``(x1, y1)``; one case after a tight block,
  three after a hybrid (``_GAP_CASES``).

These are the strand factors that the fill reads, formed once per run by
``_Ctx``; the case tuples name the tables of their segments through
``SEGMENT_TABLES``, as the factors do.

A component whose guard fails (an inadmissible closing arc, a hybrid that
cannot end at ``(j, l)``) has an empty vector.  None of these reads the
fill's combined items or its chain sums (the stored ``CH_all``, the formed
``CH_nohy``), so summing a vector is an independent check of the stored
cell.  The decoder that :func:`scored_cases` returns maps a vector index
back to its case tuple, so the cases are written down once.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, partial

import numpy as np

from .grammar_inside import (
    _GAP_TERMS,
    _ITEM_ORDER,
    CHAIN_PART_ROWS,
    HY_CLASSES,
    LABELS,
    SEGMENT_TABLES,
    InsideResult,
    _rev,
    _top_chains,
)

ALL_PARTS = ("hy", "na", "nb")
# axis 0 of a chain weight vector; axis 1 is terminal (0) / continued (1)
_ITEM_KINDS = ("hy", "vee", "tri", "box")
_LABEL_AXIS = {name: k for k, name in enumerate(LABELS)}
# the chain rows of the parts, in the order that
# :func:`component_value` adds them (CHY + CNA, then CNB)
_PARTS = [CHAIN_PART_ROWS[part] for part in ALL_PARTS]

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
        total = 0.0
        for part in parts:
            if part != "nb" or LABELS[name].has_nb:
                total += res.value(("c" + part, name), a, b, c, d)
        return total
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


def _part_of(lab, kind: str, terminal: bool) -> str:
    if kind == "hy":
        return "hy"
    if terminal:
        if lab.tail_s == "flush" and kind in ("tri", "box"):
            return "nb"
        if lab.tail_r == "flush" and kind in ("vee", "box"):
            return "nb"
    return "na"


def _top_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    ctx = res.ctx
    n, m = ctx.n, ctx.m
    w = np.empty(1 + n * m)
    w[0] = ctx.prefix_r[0] * ctx.prefix_s[0]
    # the top-level chain from (a, c) has spans n - a + 1, m - c + 1, after
    # q(1, a - 1) and q(1, c - 1)
    np.multiply(np.multiply.outer(ctx.prefix_r[n:0:-1], ctx.prefix_s[m:0:-1]),
                _top_chains(res.store, ctx)[::-1, ::-1], out=w[1:].reshape(n, m))
    return w


def _hy_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    _, cls, i, j, h, l = comp
    ctx = res.ctx
    if i == j and h == l:
        w = ctx.wext[i - 1, h - 1]
        return np.array([w] if w != 0.0 else [])
    wlast = ctx.wext[j - 1, l - 1]
    if i == j or h == l or wlast == 0.0:
        return np.empty(0)
    P, Q = j - i, l - h
    run = res.store[("hy", cls)][:P, :Q, i - 1, h - 1]
    return ((wlast * ctx.step[HY_CLASSES.index(cls), P - 1 :: -1, Q - 1 :: -1]) * run).ravel()


def _vee_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    _, ys, i, j, h, l = comp
    ctx = res.ctx
    if j - i < 2 or ctx.adm_r[j - i + 1, i - 1] == 0.0:
        return np.empty(0)
    P = j - i - 1
    chain = res.store.stacks["chain"][
        _PARTS[:2], _LABEL_AXIS[f"vee_{ys}"], P - 1 :: -1, l - h, j - 2, l - 1]
    return (ctx.ki * ctx.kq_r[:P, i]) * (chain[0] + chain[1])


def _tri_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    _, yr, i, j, h, l = comp
    ctx = res.ctx
    if l - h < 2 or ctx.adm_s[l - h + 1, h - 1] == 0.0:
        return np.empty(0)
    Q = l - h - 1
    chain = res.store.stacks["chain"][
        _PARTS[:2], _LABEL_AXIS[f"tri_{yr}"], j - i, Q - 1 :: -1, j - 1, l - 2]
    return (ctx.ki * ctx.kq_s[:Q, h]) * (chain[0] + chain[1])


def _box_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    _, i, j, h, l = comp
    ctx = res.ctx
    if (j - i < 2 or l - h < 2 or ctx.adm_r[j - i + 1, i - 1] == 0.0
            or ctx.adm_s[l - h + 1, h - 1] == 0.0):
        return np.empty(0)
    P, Q = j - i - 1, l - h - 1
    chain = res.store.stacks["chain"][
        _PARTS[:2], _LABEL_AXIS["box"], P - 1 :: -1, Q - 1 :: -1, j - 2, l - 2]
    segments = np.multiply.outer((ctx.ki * ctx.ki) * ctx.kq_r[:P, i], ctx.kq_s[:Q, h])
    return (segments * (chain[0] + chain[1])).ravel()


def _chain_item_key(lab, kind: str, kb: float) -> tuple[tuple, float]:
    """The item tensor key of one kind and its branch factor."""
    wbr_r = kb if lab.class_r == "K" else 1.0
    wbr_s = kb if lab.class_s == "K" else 1.0
    if kind == "hy":
        return ("hy", lab.hy_class), 1.0
    if kind == "vee":
        return ("vee", lab.class_s), wbr_r
    if kind == "tri":
        return ("tri", lab.class_r), wbr_s
    return ("box",), wbr_r * wbr_s


@lru_cache(maxsize=None)
def _chain_planes(name: str, parts: tuple, kb: float) -> tuple:
    """How a chain of ``name`` over ``parts`` reads its cases.

    Per plane (item kind, terminal/continued) of its vector: ``None`` where
    its entries are no cases of ``parts``, else the item's tensor key, its
    branch factor and the gap kind that continues after it.  Then per item
    kind: its row of the item stack, the row of the rest stack (GHY after a
    hybrid, else GNA) that continues after it, and its branch factor
    ``[kind, 1, 1]`` (``None`` where all are 1); and the 0/1 mask ``[kind, terminal/continued, 1, 1]``
    of the planes that hold cases.  Shared arrays: read, never written.
    """
    lab = LABELS[name]
    keys, factors = zip(*(_chain_item_key(lab, kind, kb) for kind in _ITEM_KINDS))
    gaps = ["hy" if kind == "hy" else "na" for kind in _ITEM_KINDS]
    planes = tuple((key, wbr, gap) if _part_of(lab, kind, terminal) in parts else None
                   for kind, key, wbr, gap in zip(_ITEM_KINDS, keys, factors, gaps)
                   for terminal in (True, False))
    return (planes, np.array([_ITEM_ORDER.index(key) for key in keys]),
            np.array([0 if gap == "hy" else 1 for gap in gaps]),
            None if set(factors) == {1.0} else np.array(factors)[:, None, None],
            np.array([plane is not None for plane in planes], float).reshape(-1, 2, 1, 1))


def _chain_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    _, parts, name, a, b, c, d = comp
    stacks, ctx = res.store.stacks, res.ctx
    P, Q = b - a + 1, d - c + 1
    L = _LABEL_AXIS[name]
    _planes, items, rest, factors, mask = _chain_planes(name, parts, ctx.kb)
    # the first items (a..x, c..y) of every kind, from (a, c); a view of all
    # kinds and ``take`` cost less than one advanced index (likewise the gaps)
    first = stacks["items"][:, :P, :Q, a - 1, c - 1].take(items, axis=0)
    if factors is not None:
        first *= factors
    # terminal: the tails x+1..b and y+1..d; continued: the gap x+1..b,
    # y+1..d, of spans >= 1, so the last row and column of its plane are no
    # cases; both end anchored at (b, d)
    w = np.empty((len(_ITEM_KINDS), 2, P, Q))
    np.multiply(first, np.multiply.outer(ctx.tail_r[L, P - 1 :: -1, b - 1],
                                         ctx.tail_s[L, Q - 1 :: -1, d - 1]), out=w[:, 0])
    np.multiply(first[:, : P - 1, : Q - 1],
                stacks["rest"][:, L, _rev(P - 1), _rev(Q - 1), b - 1, d - 1].take(rest, axis=0),
                out=w[:, 1, : P - 1, : Q - 1])
    w[:, 1, P - 1] = 0.0
    w[:, 1, :, Q - 1] = 0.0
    w *= mask
    return w.ravel()


def _gap_weights(res: InsideResult, comp: tuple) -> np.ndarray:
    _, after, name, x, b, y, d = comp
    ctx, lab, L = res.ctx, LABELS[name], _LABEL_AXIS[name]
    P, Q = b - x + 1, d - y + 1
    cases = _GAP_CASES[after]
    # the chain parts over (x1..b, y1..d), end anchored at (b, d)
    stored = ALL_PARTS if lab.has_nb else ALL_PARTS[:2]
    chain = dict(zip(stored, res.store.stacks["chain"][
        _PARTS[: len(stored)], L, P - 1 :: -1, Q - 1 :: -1, b - 1, d - 1]))
    sums: dict[tuple, np.ndarray] = {}
    w = np.empty((len(cases), P, Q))
    for plane, (seg_r, seg_s, parts) in zip(w, cases):
        t = _GAP_TERMS.index((seg_r, seg_s))  # the last term is the bare one
        r, s = (ctx.gap_r[t, L], ctx.gap_s[t, L]) if t < 3 else (ctx.bare_r[L], ctx.bare_s[L])
        np.multiply.outer(r[:P, x - 1], s[:Q, y - 1], out=plane)
        if parts not in sums:
            sums[parts] = sum(chain[part] for part in parts if part in chain)
        plane *= sums[parts]
    return w.ravel()


def _segment(seg: str, sid: str, cls: str, i: int, j: int) -> tuple:
    if seg == "unp":
        return ("unp", sid, cls, i, j)
    return ("sec", sid, SEGMENT_TABLES[seg][cls], i, j)


def _decode_top(res: InsideResult, comp: tuple, t: int) -> tuple:
    n, m = res.ctx.n, res.ctx.m
    if t == 0:
        return (1.0, [("sec", "R", "q", 1, n), ("sec", "S", "q", 1, m)], [])
    a, c = divmod(t - 1, m)
    return (1.0, [("sec", "R", "q", 1, a), ("sec", "S", "q", 1, c),
                  ("chain", ALL_PARTS, "top", a + 1, n, c + 1, m)], [])


def _decode_hy(res: InsideResult, comp: tuple, t: int) -> tuple:
    _, cls, i, j, h, l = comp
    ctx = res.ctx
    if i == j and h == l:
        return (ctx.wext[i - 1, h - 1], [], [("ext", i, h)])
    i1, h1 = divmod(t, l - h)
    i1 += i
    h1 += h
    step = ctx.step[HY_CLASSES.index(cls), j - i1 - 1, l - h1 - 1]
    return (ctx.wext[j - 1, l - 1] * step, [("hy", cls, i, i1, h, h1)], [("ext", j, l)])


def _decode_vee(res: InsideResult, comp: tuple, t: int) -> tuple:
    _, ys, i, j, h, l = comp
    a = i + 1 + t
    return (res.ctx.ki, [("sec", "R", "qk", i + 1, a - 1),
                         ("chain", ("hy", "na"), f"vee_{ys}", a, j - 1, h, l)],
            [("arc_r", i, j)])


def _decode_tri(res: InsideResult, comp: tuple, t: int) -> tuple:
    _, yr, i, j, h, l = comp
    c = h + 1 + t
    return (res.ctx.ki, [("sec", "S", "qk", h + 1, c - 1),
                         ("chain", ("hy", "na"), f"tri_{yr}", i, j, c, l - 1)],
            [("arc_s", h, l)])


def _decode_box(res: InsideResult, comp: tuple, t: int) -> tuple:
    _, i, j, h, l = comp
    a, c = divmod(t, l - h - 1)
    a += i + 1
    c += h + 1
    return (res.ctx.ki * res.ctx.ki,
            [("sec", "R", "qk", i + 1, a - 1), ("sec", "S", "qk", h + 1, c - 1),
             ("chain", ALL_PARTS, "box", a, j - 1, c, l - 1)],
            [("arc_r", i, j), ("arc_s", h, l)])


def _decode_chain_or_gap(res: InsideResult, comp: tuple, t: int) -> tuple | None:
    kind, tag, name, x, b, y, d = comp  # tag: a chain's parts, a gap's after
    lab = LABELS[name]
    P, Q = b - x + 1, d - y + 1
    plane, cell = divmod(t, P * Q)
    x1, y1 = divmod(cell, Q)
    x1 += x
    y1 += y
    if kind == "chain":
        case = _chain_planes(name, tag, res.ctx.kb)[0][plane]
        if case is None:
            return None
        key, wbr, after = case
        item = key + (x, x1, y, y1)
        if plane % 2:  # continued
            if x1 == b or y1 == d:
                return None
            return (wbr, [item, ("gap", after, name, x1 + 1, b, y1 + 1, d)], [])
        children = [item]
        if lab.tail_r == "free":
            children.append(("sec", "R", SEGMENT_TABLES["any"][lab.class_r], x1 + 1, b))
        elif x1 != b:
            return None
        if lab.tail_s == "free":
            children.append(("sec", "S", SEGMENT_TABLES["any"][lab.class_s], y1 + 1, d))
        elif y1 != d:
            return None
        return (wbr, children, [])
    seg_r, seg_s, parts = _GAP_CASES[tag][plane]
    children = [_segment(seg_r, "R", lab.class_r, x, x1 - 1),
                _segment(seg_s, "S", lab.class_s, y, y1 - 1),
                ("chain", parts, name, x1, b, y1, d)]
    return (1.0, children, [])


# kind -> (weight vector, decoder of one index)
_KINDS = {
    "top": (_top_weights, _decode_top),
    "hy": (_hy_weights, _decode_hy),
    "vee": (_vee_weights, _decode_vee),
    "tri": (_tri_weights, _decode_tri),
    "box": (_box_weights, _decode_box),
    "chain": (_chain_weights, _decode_chain_or_gap),
    "gap": (_gap_weights, _decode_chain_or_gap),
}


def scored_cases(
    res: InsideResult, comp: tuple
) -> tuple[np.ndarray, Callable[[int], tuple]]:
    """The value of every case of a 4D component (its weight times its child
    values) and a map from case index to case tuple (see the module
    docstring for the layout of each kind's vector)."""
    try:
        weights, decode = _KINDS[comp[0]]
    except KeyError:
        raise KeyError(f"no cases for component {comp!r}") from None
    return weights(res, comp), partial(decode, res, comp)


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
