"""Single-strand partition functions with class-priced exposure tables.

:func:`fold` returns the filled :class:`SecEngine` of one strand.  The
joint-structure grammar consumes secondary structure through a handful of
its 2D tables, ``tables[kind][i, j]`` over 1-based cells:

* ``qb``   - structures closed by an arc (standard hairpin / interior /
             stack / multiloop decomposition); with ``forbid_lone_pairs``
             the helix tables ``qbh`` (helices of length >= 2) and ``qend``
             (the last pair of a helix) take its place,
* ``q``    - any structure, exposure-free pricing (exterior class),
* ``q1``   - like ``q`` but at least one top-level branch,
* ``qk``   - any structure, kissing-class pricing for exposed branches and
             unpaired bases,
* ``q1k``  - kissing-class with at least one branch,
* ``qm``/``qm1`` - multi-class helpers used inside the closed tables.

The 4D grammar reads these tables, and the constant plane of the arcs'
admissibility, as span-anchored diagonals ``[g, x - 1]``, the segment of
length ``g`` that starts (or ends) at ``x``, for anchors ``1 <= x <= n``.  A
strand factor of the grammar is declared as a flat index into the planes and
a weight per ``[g, x - 1]``
(:meth:`SecEngine.segment`): a gather forms it, and a scatter through the
same index passes its outside weight back onto the cells.

The multi- and kissing-class tables are one recursion instantiated with two
affine weight classes.  Every production is declared once, for all spans, in
:meth:`SecEngine._declared`: child-cell offsets and a weight per case
(:class:`_Cases`).  The fill, the outside sweep and the stochastic traceback
(:meth:`SecEngine.sample`) all read these declarations.  The fill and the
outside sweep run one span at a time for all start positions at once.  The
fill evaluates a span's cases as a gather, a product and a sum; the outside
sweep evaluates their transpose as a scatter-add (``numpy.add.at``), because
interior-loop children repeat across start positions.  The traceback scores
the cases of one cell with the same gather.  The tests keep a scalar per-cell
case list as the reference, and check every cell of the fill, the outside
sweep and the traceback against it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .energy import EnergyModel
from .seq_model import ALPHABET, BASE_CODE, Strand

__all__ = [
    "NumericalUnderflow",
    "SecEngine",
    "check_partition_function",
    "fold",
    "pick_with_slack",
    "secondary_bpp",
]

_EMPTY_ONE = ("q", "qk")  # tables whose empty interval has value 1
# the least positive float
_TINY = np.nextafter(0.0, 1.0)
_DINUCLEOTIDES = ["".join(x) for x in itertools.product(ALPHABET, repeat=2)]

# Fill order of the tables of one cell: a case reads cells of the same span
# only from kinds earlier in this order.  With ``forbid_lone_pairs`` the helix
# tables replace ``qb``, without it they do not exist.
FILL_ORDER = ("qend", "qbh", "qb", "qm1", "qm", "q", "q1", "qk", "q1k")
_HELIX = ("qend", "qbh")
# the constant planes after the tables (see SecEngine.__init__)
_CONSTANT_PLANES = ("one", "stack", "adm")


def planes_bytes(n: int) -> int:
    """The most bytes that :attr:`SecEngine.planes` takes for a strand of
    length ``n``: every kind but ``qb`` (with ``forbid_lone_pairs``) or but
    the helix kinds (without it), and the constant planes."""
    return (len(FILL_ORDER) - 1 + len(_CONSTANT_PLANES)) * (n + 2) ** 2 * 8


class NumericalUnderflow(RuntimeError):
    """A partition function or a case distribution failed to normalise."""


def check_partition_function(q: float) -> None:
    """Refuse a partition function that is not finite and positive.

    Raises:
        NumericalUnderflow: ``q`` is NaN, infinite, zero or negative.
    """
    if not (math.isfinite(q) and q > 0.0):
        raise NumericalUnderflow(f"partition function is {float(q)!r}")


@dataclass(frozen=True)
class _Cases:
    """The cases of one table at every span, for every start position.

    The tables of an engine are planes of one array and ``flat`` is that
    array flattened.  For span ``s``, ``cell`` is the column of the flat
    indices of the cells ``(i, i)`` of the first plane, one row per start
    position ``i``, and ``at`` holds those of ``(i, i + s - 1)``.  That cell
    of this table, ``flat[plane + at]``, is ``scale[at] * sum_c weights[c] *
    flat[cell + left[c]] * flat[cell + right[c]]`` over the cases ``c`` in
    ``bounds[s-1]:bounds[s]``.  ``scale`` (the closing arc's admissibility,
    one plane) is None for 1.  A case with one child, or none, reads the
    constant plane of ones for the others.  ``key`` orders the cases of a
    span for the sampler (:meth:`by_key`).
    """

    plane: int  # flat index of the table's first cell
    scale: np.ndarray | None
    bounds: list[int]
    weights: np.ndarray
    left: np.ndarray
    right: np.ndarray
    key: np.ndarray

    def by_key(self) -> _Cases:
        """The same cases, those of each span sorted by ``key`` (stably)."""
        span = np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds))
        order = np.lexsort((self.key, span))
        return _Cases(self.plane, self.scale, self.bounds, self.weights[order],
                      self.left[order], self.right[order], self.key[order])

    def products(self, flat: np.ndarray, cell: np.ndarray | int, s: int) -> np.ndarray:
        """The weight times the child cells of every case of span ``s``, one
        row per start position of ``cell``; the unscaled terms of a cell."""
        lo, hi = self.bounds[s - 1], self.bounds[s]
        return (flat.take(cell + self.left[lo:hi]) * flat.take(cell + self.right[lo:hi])
                * self.weights[lo:hi])

    def evaluate(self, flat: np.ndarray, cell: np.ndarray, at: np.ndarray, s: int) -> None:
        """Fill the span's cells: a gather, a product and a sum."""
        if self.bounds[s - 1] == self.bounds[s]:
            return
        total = self.products(flat, cell, s).sum(axis=1)
        if self.scale is not None:
            total *= self.scale.take(at)
        flat[self.plane + at] = total

    def transpose(self, flat: np.ndarray, acc: np.ndarray, cell: np.ndarray, at: np.ndarray,
                  s: int) -> None:
        """Pass the outside weights of the span's cells in ``acc`` (laid out
        like ``flat``) on to their children: the scatter transpose of
        :meth:`evaluate`.  A child cell repeats across start positions, so
        the adds go through ``numpy.add.at``."""
        lo, hi = self.bounds[s - 1], self.bounds[s]
        o = acc.take(self.plane + at)
        if lo == hi or not o.any():
            return
        if self.scale is not None:
            o *= self.scale.take(at)
        left, right = (cell + self.left[lo:hi]).ravel(), (cell + self.right[lo:hi]).ravel()
        ow = (o[:, None] * self.weights[lo:hi]).ravel()
        np.add.at(acc, left, ow * flat.take(right))
        np.add.at(acc, right, ow * flat.take(left))


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ``counts[s - 1]`` cases at span ``s``: the span and the index
    ``t`` within its span of every case."""
    counts = np.maximum(counts, 0)
    s = np.repeat(np.arange(1, counts.size + 1), counts)
    return s, np.arange(s.size) - np.repeat(np.cumsum(counts) - counts, counts)


class SecEngine:
    """Recursion definitions and storage for one strand under one model."""

    def __init__(self, strand: Strand, model: EnergyModel):
        self.strand = strand
        self.model = model
        self.n = len(strand)
        self.seq = strand.residues
        self.nolp = model.forbid_lone_pairs
        self.branch_kind = "qbh" if self.nolp else "qb"
        # Same-cell dependencies pin the order: closed tables fill before the
        # chains that place them; the outside sweep runs the reverse.
        kinds = [k for k in FILL_ORDER if k not in (("qb",) if self.nolp else _HELIX)]
        self.kinds = kinds
        size = self.n + 2
        # the tables, then the constant planes that the declarations read:
        # ones, the stack weight of (i+1, j-1) inside each arc (i, j), and the
        # admissibility of each arc
        names = kinds + list(_CONSTANT_PLANES)
        self._planes = np.zeros((len(names), size, size))
        self.planes = self._planes.reshape(-1)  # all of them, flat
        self.offset = {k: p * size * size for p, k in enumerate(names)}  # of each plane
        self.tables: dict[str, np.ndarray] = dict(zip(kinds, self._planes))
        for k in _EMPTY_ONE:
            for i in range(1, size):
                self.tables[k][i, i - 1] = 1.0
        self._diag = np.arange(1, self.n + 1) * (size + 1)  # flat index of (i, i)
        self._cases: list[_Cases] | None = None
        self._sampled: dict[str, _Cases] = {}  # per kind, by key; see sample()
        self._spans = {end: self._span_cells(end) for end in (False, True)}

    # -- declarations ------------------------------------------------------

    def _arc_planes(self) -> np.ndarray:
        """Per arc ``(i, j)``, 1-based: the admissibility of the helix ``(i,
        j), (i+1, j-1)``.  Also fills the constant planes: ones, the weight of
        stacking ``(i+1, j-1)`` inside each admissible arc that has room for
        it, and the admissibility of each arc: its pair type and hairpin size."""
        m, n, size = self.model, self.n, self.n + 2
        ones, stack, adm = self._planes[-3:]
        ones[...] = 1.0
        codes = np.array([BASE_CODE[b] for b in self.seq], dtype=np.intp)
        pair_ok = np.array([[m.pairable(x, y) for y in ALPHABET] for x in ALPHABET])
        ii, jj = np.indices((size, size))
        adm[1:-1, 1:-1] = pair_ok[codes[:, None], codes[None, :]]
        adm *= jj - ii - 1 >= m.min_hairpin
        w_stack = np.zeros((16, 16))  # [outer, inner], each pair coded 4 * a + b
        for outer in m.pairs:
            w_stack[4 * BASE_CODE[outer[0]] + BASE_CODE[outer[1]]] = [
                m.w_stack(outer, inner) for inner in _DINUCLEOTIDES]
        x, y = np.nonzero((adm[1:-1, 1:-1] != 0.0) & (jj - ii >= 3)[:n, :n])  # 0-based
        stack[x + 1, y + 1] = w_stack[4 * codes[x] + codes[y], 4 * codes[x + 1] + codes[y - 1]]
        helix = adm.copy()
        helix[1:-1, 1:-1] *= adm[2:, :-2]
        return helix

    def _declared(self) -> list[_Cases]:
        """The cases of every table, per kind in :data:`FILL_ORDER`, for
        every span at once; built once per engine.

        Each production is declared once, over arrays of the span ``s`` and
        an index ``t`` of its cases within the span.  A child ``(kind, r,
        c)`` of the cell ``(i, j)``, ``j = i + s - 1``, is the cell ``(i + r,
        i + c)`` of that kind's plane.  An empty prefix reads the constant 1
        (the value of ``q[i, i-1]``).

        The fill sums a span's cases in the order they are declared.  The
        sampler indexes them in the order of a ``key`` per case (stable
        within equal keys): the closed loops by hairpin, then inner arc,
        then multiloop split; ``qm1`` by branch end; ``qm`` by the start of
        its last branch, the all-unpaired prefix first.
        """
        if self._cases is not None:
            return self._cases
        m = self.model
        n, size, bk = self.n, self.n + 2, self.branch_kind
        theta = m.min_hairpin
        plane = self.offset
        helix = self._arc_planes()
        w_hairpin = np.array([m.w_hairpin(k) for k in range(n)])
        # interior loops with a and b unpaired bases on the two sides, the
        # stack (0, 0) left out, ordered by a + b: a span's loops are a prefix
        a, b = np.indices((n, n)).reshape(2, -1)
        order = np.lexsort((a, a + b))[1: n * (n + 1) // 2]
        a, b = a[order], b[order]
        w_interior = np.array([m.w_interior(x, y) for x, y in zip(a.tolist(), b.tolist())])
        w_unp = np.array([m.w_multi_unpaired ** k for k in range(size)])
        wmb, wmi = m.w_multi_branch, m.w_multi_init

        spans = np.arange(1, n + 1)
        closes = spans >= theta + 2  # spans whose arcs can be admissible
        one = ("one", 0, 0)
        groups: dict[str, list] = {k: [] for k in self.kinds}

        def add(kind, s, weights, left, right=one, key=0):
            """Cases of ``kind`` at spans ``s``; a child is (kind, r, c)."""
            columns = (key, weights, *(plane[k] + r * size + c for k, r, c in (left, right)))
            groups[kind].append([s, *(x if isinstance(x, np.ndarray) else np.full(s.size, x)
                                      for x in columns)])

        # the loops closed by an arc; a helix end (qend) closes no stack
        closed, inner = ("qend", "qbh") if self.nolp else ("qb", "qb")
        s = spans[closes]  # hairpin
        add(closed, s, w_hairpin[s - 2], one)
        s, t = _ragged(np.where(closes, (spans - 4) * (spans - 1) // 2, 0))
        p, q = 1 + a[t], s - 2 - b[t]  # the inner arc (i + p, i + q)
        add(closed, s, w_interior[t], (inner, p, q), key=p * size + q)
        s, t = _ragged(np.where(closes, spans - 4, 0))  # multiloop, last branch from i+2+t
        add(closed, s, wmi, ("qm", 1, 1 + t), ("qm1", 2 + t, s - 2), key=size * size + t)
        if self.nolp:  # helix (i, j), (i+1, j-1): its end, or a longer helix
            s = spans[spans >= theta + 4]
            add("qbh", s, 1.0, ("stack", 0, s - 1), ("qend", 1, s - 2))
            add("qbh", s, 1.0, ("stack", 0, s - 1), ("qbh", 1, s - 2))
        else:
            s = spans[closes & (spans >= 4)]
            add("qb", s, 1.0, ("stack", 0, s - 1), ("qb", 1, s - 2), key=size + s - 2)
        s, t = _ragged(spans - 1)  # one branch (i, j - t), then t unpaired
        add("qm1", s, wmb * w_unp[t], (bk, 0, s - 1 - t), key=-t)
        s, t = _ragged(spans)  # the last branch starts at i + t
        add("qm", s, w_unp[t], ("qm1", t, s - 1), key=2 * t)
        s, t = _ragged(spans - 1)
        add("qm", s, 1.0, ("qm", 0, t), ("qm1", t + 1, s - 1), key=2 * t + 3)
        for kind in ("q", "q1", "qk", "q1k"):
            kiss = kind in ("qk", "q1k")
            wu = m.w_kiss_unpaired if kiss else 1.0
            wb = m.w_kiss_branch if kiss else 1.0
            base = "qk" if kiss else "q"
            if kind in _EMPTY_ONE:  # j unpaired, before it the empty interval
                add(kind, spans[:1], wu, one)
            s = spans[1:]
            add(kind, s, wu, (kind, 0, s - 2))
            add(kind, s, wb, one, (bk, 0, s - 1))  # one branch, empty prefix
            s, t = _ragged(spans - 2)  # last branch (i + t + 1, j)
            add(kind, s, wb, (base, 0, t), (bk, t + 1, s - 1))
        adm = self.planes[plane["adm"]: plane["adm"] + size * size]
        scale = {"qb": adm, "qend": adm, "qbh": helix.reshape(-1)}
        self._cases = []
        for kind in self.kinds:
            s, key, weights, left, right = (np.concatenate(c) for c in zip(*groups.pop(kind)))
            order = np.argsort(s, kind="stable")
            bounds = np.searchsorted(s[order], np.arange(1, n + 2)).tolist()
            self._cases.append(_Cases(
                plane[kind], scale.get(kind), bounds, weights[order],
                *(x[order].astype(np.int32) for x in (left, right, key))))
        return self._cases

    # -- fill ---------------------------------------------------------------

    def value(self, kind: str, i: int, j: int) -> float:
        if j < i:
            return 1.0 if kind in _EMPTY_ONE else 0.0
        return float(self.tables[kind][i, j])

    def q_total(self) -> float:
        """The partition function of the whole strand."""
        return float(self.tables["q"][1, self.n])

    def _span_cells(self, end: bool) -> tuple[np.ndarray, np.ndarray]:
        """Per ``[g, x - 1]``, anchors ``1 <= x <= n``: whether the span ``g
        >= 1`` anchored at ``x`` lies on the strand, and the flat index within
        a plane of the cell ``(i, j)`` it names there (else 0)."""
        g, x = np.arange(self.n + 2)[:, None], np.arange(1, self.n + 1)
        i, j = (x - g + 1, x) if end else (x, x + g - 1)
        ok = (g >= 1) & (i >= 1) & (j <= self.n)
        return ok, (ok * (i * (self.n + 2) + j)).astype(np.int32)

    def segment(self, table: str | None, end: bool = False,
                unpaired: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """A strand factor over spans, as ``[g, x - 1]`` arrays of flat
        indices into :attr:`planes` and of weights; the factor is ``weight *
        planes.take(index)``, and the transpose scatters its outside weight
        times ``weight`` back through ``index``.  Entry ``[g, x - 1]`` is the
        segment of length ``g`` that starts at ``x``, or ends there when
        anchored at the ``end``; the anchors are ``1 <= x <= n``.  With a
        ``table`` (a kind, or the plane ``adm``) it reads that plane's cell,
        weight 1 on the strand and 0 off it; without one it is all unpaired,
        weight ``unpaired ** g`` on the strand.  Every entry that reads no
        cell (no table, off the strand, span 0) reads the plane of ones; at
        span 0 the weight is the value of an empty interval, 1 for ``q``,
        ``qk`` and unpaired bases, else 0."""
        ok, cell = self._spans[end]
        ones = self.offset["one"]
        if table is None:
            index = np.full(ok.shape, ones, dtype=np.int32)
            weight = ok * np.array([unpaired ** g for g in range(self.n + 2)])[:, None]
        else:
            index = np.where(ok, self.offset[table] + cell, ones)
            weight = ok * 1.0
        weight[0] = table is None or table in _EMPTY_ONE
        return index, weight

    def fill(self) -> None:
        """Fill every table, one span at a time for all start positions."""
        flat = self.planes
        declared = self._declared()
        for s in range(1, self.n + 1):
            cell = self._diag[: self.n - s + 1, None]
            at = cell[:, 0] + (s - 1)
            for cases in declared:
                cases.evaluate(flat, cell, at, s)

    # -- outside ------------------------------------------------------------

    def outside(self, seeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Propagate outside weights down to every table.

        ``seeds[kind][i, j]`` is the outside weight of cell (kind, i, j)
        accumulated by external users (the 4D engine, or the top level for
        plain single-strand folding).  Returns per-kind outside arrays; the
        base-pair weight of arc (i,j) is ``out['qb'][i,j] * qb[i,j]`` (the sum
        over the helix tables in lone-pair-free mode).  Spans run from the
        longest down and the kinds of a span in reverse fill order, so a
        cell's outside weight is complete before it is passed on.
        """
        acc = np.zeros_like(self._planes)
        out = dict(zip(self.kinds, acc))
        for k, arr in seeds.items():
            out[k] += arr
        flat, acc = self.planes, acc.reshape(-1)
        declared = self._declared()[::-1]
        for s in range(self.n, 0, -1):
            cell = self._diag[: self.n - s + 1, None]
            at = cell[:, 0] + (s - 1)
            for cases in declared:
                cases.transpose(flat, acc, cell, at, s)
        return out

    def arc_probabilities(self, out: dict[str, np.ndarray], q_total: float) -> np.ndarray:
        """Base-pair probabilities implied by outside weights."""
        closed = ("qbh", "qend") if self.nolp else ("qb",)
        return sum(out[kind] * self.tables[kind] for kind in closed) / q_total

    # -- sampling -----------------------------------------------------------

    def sample(
        self, kind: str, i: int, j: int, us: np.ndarray
    ) -> tuple[Callable[[int], tuple], np.ndarray, float]:
        """The decoder of the cases of cell (kind, i, j), the index of the
        case that each uniform of ``us`` picks, and the cell's normalisation
        slack.

        The cases are scored once, however many uniforms there are, with one
        gather of their child cells; see :func:`pick_with_slack` for the rule
        and the check.  ``decode(t)`` gives the children ``(kind, i, j)`` of
        case ``t`` and the arc that it fixes, ``(i, j)`` for a closed loop,
        else None.

        Raises:
            NumericalUnderflow: the cases do not sum to the stored cell.
        """
        cases = self._sampled.get(kind)
        if cases is None:  # on the first draw that reaches the kind
            cases = self._sampled[kind] = self._declared()[self.kinds.index(kind)].by_key()
        s, cell = j - i + 1, int(self._diag[i - 1])
        weights = cases.products(self.planes, cell, s)
        arc = None
        if cases.scale is not None:  # the cell is closed by the arc (i, j)
            weights *= cases.scale[cell + s - 1]
            arc = (i, j)
        return (partial(self._decode, cases, cell, s, arc),
                *pick_with_slack(weights, self.value(kind, i, j), us))

    def _decode(self, cases: _Cases, cell: int, s: int, arc: tuple | None,
                t: int) -> tuple[list[tuple], tuple | None]:
        """The children of case ``t`` of a cell that :meth:`sample` scored,
        and its arc.  A child is the table cell that the case reads, named by
        its flat index; the constant planes are not children."""
        size = self.n + 2
        at = cases.bounds[s - 1] + t
        children = []
        for offset in (cases.left[at], cases.right[at]):
            p, c = divmod(cell + int(offset), size * size)
            if p < len(self.kinds):
                children.append((self.kinds[p], *divmod(c, size)))
        return children, arc


def pick_with_slack(
    weights: np.ndarray, total: float, us: np.ndarray
) -> tuple[np.ndarray, float]:
    """The index of the case that each uniform of ``us``, in [0, 1), picks,
    and the normalisation slack ``|sum(weights) - total| / total``.

    Case ``t`` is picked with probability ``weights[t] / total``
    (``weights >= 0``): each uniform is scaled to the sum of the weights and
    located in their prefix sums with ``searchsorted(side="left")``, the
    first case whose prefix sum reaches it.  A case of weight 0 repeats the
    prefix sum before it, so it is never the first to reach a scaled uniform
    above 0, and a scaled uniform of 0 is raised to the least positive float.

    Raises:
        NumericalUnderflow: the slack exceeds 1e-6 (or the sum is not
            finite), or no weight is positive.
    """
    acc = float(np.add.reduce(weights))
    slack = abs(acc - total) / max(abs(total), 1e-300)
    if not math.isfinite(acc) or slack > 1e-6:
        raise NumericalUnderflow(f"cases sum to {acc!r}, table holds {float(total)!r}")
    prefix = weights.cumsum()
    if not (prefix.size and prefix[-1] > 0.0):
        raise NumericalUnderflow("no positive case")
    return prefix.searchsorted(np.maximum(us * prefix[-1], _TINY), side="left"), slack


def fold(strand: Strand, model: EnergyModel) -> SecEngine:
    """The engine of one strand with all its tables filled, in O(L^4) time
    (interior loops are not size-capped) and O(L^2) space."""
    eng = SecEngine(strand, model)
    eng.fill()
    return eng


def secondary_bpp(strand: Strand, model: EnergyModel) -> np.ndarray:
    """Standalone base-pair probabilities of one strand (McCaskill-style)."""
    eng = fold(strand, model)
    seeds = np.zeros_like(eng.tables["q"])
    seeds[1, eng.n] = 1.0
    return eng.arc_probabilities(eng.outside({"q": seeds}), eng.q_total())
