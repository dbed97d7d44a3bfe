"""Inside algorithm: 4D partition-function tables over the block grammar.

The production system is frozen in ``docs/grammar.md``.  Cells are pairs of
subsequences ``(i,j;h,l)``; every tensor is indexed ``[span_r - 1, span_s -
1, anchor_r - 1, anchor_s - 1]`` where the anchor is the cell *start* for
item tensors (hybrids and tight blocks) and the cell *end* for chain/gap
tensors.  Spans and anchors take the values 1..n on R (1..m on S), so a
table of lengths (n, m) has shape ``(n, m, n, m)`` and holds no padding;
the strand factors of ``_Ctx`` share the anchor axis (anchor x at index x -
1), so one set of wave slices indexes both.  The end-anchored layout makes
every recursion a contraction over aligned span axes with constant position
offsets.  The public coordinates (:meth:`InsideResult.value`, the
probability matrices, the sampler's components) stay 1-based.

Each tensor family is one stacked allocation with the chain label (or item
kind) as a leading axis (``_FAMILIES``); ``store[key]`` is a view of one
slice.  A wave (fixed span pair) therefore fills all labels, hybrid classes
and tight kinds at once.  The chain parts CNA, CNB and CHY share one stack,
read through a strided view ``chain[part, label]``.

Each wave production of ``docs/grammar.md`` §4 is declared once, in
``_WAVE``: an einsum over named operands (a stored family, a ``_Ctx`` array
or a derived operand), the index of each operand built from the wave's spans,
a guard, and where each operand's outside weight goes (``_Prod``).  The
``_Ctx`` arrays read from the secondary tables are declared once too, as an
index into those tables and a weight (``_Ctx.factors``), and the outside pass
scatters their outside weight back through the same index.  The
derived operand (the branch-weighted items) and the chain sums are declared
with their forward and their transpose: CH_nohy = CNA + CNB and CH_all =
CH_nohy + CHY are formed per wave over the block that GHY/GNA read; neither
is stored, and neither has an outside family.  The derived operand ci, the
chain sums and ci's outside weight are formed in flat work buffers that one
run allocates once, sized for its largest wave (``_operands``).
The inside fill evaluates ``_WAVE`` in order (``_fill_wave``); the outside
pass (:mod:`jointfold.outside_prob`) forms the rows of ci that it reads and
then walks ``_WAVE`` in reverse through one transpose rule
(``_transpose_wave``): for ``C = einsum(A, B, ...)`` it adds ``einsum(C_out,
B, ... -> A)`` into A's outside target at A's own index, so a production and
its transpose cannot drift apart.  The transpose of each production is split
by target into two parts: the 4D part (the outside families and the
per-wave operands ci, CH_all and CH_nohy), which the outside sweep runs, and
the strand part (the strand factors of ``_SEGMENTS``), which only base-pair
probabilities read and a second reverse pass runs.  ``docs/grammar.md`` §6
counts the numpy calls that the fill and each part make per wave.

Under a unit model every entry is an ensemble count; the brute-force oracle
checks both the counts and the weighted sums cell for cell (via the
per-cell case enumeration in ``_cases.py``, shared with the sampler).
``_cases.py`` is written out by hand on purpose: generated from ``_WAVE``,
the reconstruction check would compare the declarations with themselves.
"""

from __future__ import annotations

import itertools
import math
import mmap
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .energy import EnergyModel
from .secfold import SecEngine, check_partition_function, fold, planes_bytes
from .seq_model import ALPHABET, Strand

__all__ = [
    "ChainLabel",
    "LABELS",
    "HY_CLASSES",
    "CapacityExceeded",
    "TensorStore",
    "InsideResult",
    "inside",
    "estimate_memory_bytes",
]

HY_CLASSES = ("EE", "EK", "KE", "KK")


@dataclass(frozen=True)
class ChainLabel:
    """Per-strand exposure class and tail mode of a chain tensor."""

    name: str
    class_r: str  # "E" | "K"
    class_s: str
    tail_r: str  # "free" | "flush"
    tail_s: str

    @property
    def hy_class(self) -> str:
        return self.class_r + self.class_s

    @property
    def has_nb(self) -> bool:
        return self.tail_r == "flush" or self.tail_s == "flush"


# The stacked layout of the inside and outside tables is decided here, and
# only here: the order of LABELS is the label axis of every stacked
# chain-side tensor, chosen so that each per-wave operand is a plain strided
# view.  Labels 1:5 are the four with a flush tail (the only ones with a CNB
# part); labels 0:3 carry the hybrid classes EE/EK/KE and labels 3:6 all
# carry KK.
LABELS: dict[str, ChainLabel] = {
    lab.name: lab
    for lab in (
        ChainLabel("top", "E", "E", "free", "free"),
        ChainLabel("tri_E", "E", "K", "flush", "free"),
        ChainLabel("vee_E", "K", "E", "free", "flush"),
        ChainLabel("vee_K", "K", "K", "free", "flush"),
        ChainLabel("tri_K", "K", "K", "flush", "free"),
        ChainLabel("box", "K", "K", "free", "free"),
    )
}
_LABS = tuple(LABELS.values())
_NB = slice(1, 5)  # labels with a CNB part
_NB_LABS = _LABS[_NB]

# Storage order of the stacked item tensors: the hybrid classes (in the
# order of HY_CLASSES, which labels 0:3 follow), then the tight blocks.  The
# R-closed kinds are 4:7 and the S-closed kinds 6:9; the VEE pair is filled
# from labels 2:4 and the TRI pair from labels 1 and 4.
_ITEM_ORDER = tuple(("hy", c) for c in HY_CLASSES) + (
    ("vee", "E"), ("vee", "K"), ("box",), ("tri", "E"), ("tri", "K"))
_HY = slice(0, 4)
_R_CLOSED, _S_CLOSED = slice(4, 7), slice(6, 9)
_TIGHT = slice(4, 9)
_VEE_ITEMS, _VEE_LABELS = slice(4, 6), slice(2, 4)
_TRI_ITEMS, _TRI_LABELS = slice(7, 9), slice(1, 5, 3)
_BOX_ITEM, _BOX_LABEL = 6, 5

assert [lab.has_nb for lab in _LABS] == [False, True, True, True, True, False]
assert [lab.hy_class for lab in _LABS] == list(HY_CLASSES[:3]) + ["KK"] * 3
assert [("vee", lab.name[-1]) for lab in _LABS[_VEE_LABELS]] == list(
    _ITEM_ORDER[_VEE_ITEMS])
assert [("tri", lab.name[-1]) for lab in _LABS[_TRI_LABELS]] == list(
    _ITEM_ORDER[_TRI_ITEMS])
assert _LABS[_BOX_LABEL].name == "box" and _ITEM_ORDER[_BOX_ITEM] == ("box",)

_Families = dict[str, tuple[tuple[int, ...], tuple[tuple, ...]]]
_GAP_KEYS = tuple((f, L) for f in ("ghy", "gna") for L in LABELS)

# The chain family stacks CNA, CNB and CHY in that order, CNB for the four
# flush labels only: slot 5x + l holds part x (CNA, CNB, CHY) of label l.  It
# is read through one strided view ``chain[x, l]`` (_chain_rows), whose rows
# pair with the row blocks NA, EX, HY of the combined items.  The CNB row of
# top and box aliases other slots (CNA of box, CHY of top); no production
# reads or writes it.
_CNA, _CNB, _CHY = 0, 1, 2
# the row of each part of a chain component ("hy", "na", "nb") in the view
# ``TensorStore.stacks["chain"][row, label]``
CHAIN_PART_ROWS = {"hy": _CHY, "na": _CNA, "nb": _CNB}
_NA_HY = slice(0, 3, 2)  # the chain rows CNA and CHY
_TOP_BOX = slice(0, 6, 5)  # the labels with two free tails
_CHAIN_KEYS = (tuple(("cna", L) for L in LABELS) + tuple(("cnb", lab.name) for lab in _NB_LABS)
               + tuple(("chy", L) for L in LABELS))

# Stacked tensor families: name -> (leading stack shape, keys in C order).
# Items are start anchored [.., p, q, i, h]; chains and the gap rows of
# "rest" (GHY, GNA) end anchored [.., p, q, j, l].
_FAMILIES: _Families = {
    "items": ((9,), _ITEM_ORDER),
    "chain": ((16,), _CHAIN_KEYS),
    "rest": ((2, 6), _GAP_KEYS),
}

# The terms of GHY/GNA (docs/grammar.md §4): the segment kind on R and on S.
# Over CH_all the first two fill GHY and the third GNA; the last, the bare
# term, fills GHY over CH_nohy.  Unpaired segments are constants: of the
# terms over CH_all only R rows 1:3 carry outside weight.
_GAP_TERMS = (("unp", "ge1"), ("ge1", "any"), ("any", "any"), ("unp", "unp"))
# The secondary table that a segment of each kind reads, by exposure class
# (docs/grammar.md §3): any structure, or at least one branch.  The other
# kinds read none: "unp" is all unpaired, "flush" the empty tail.
SEGMENT_TABLES = {"any": {"E": "q", "K": "qk"}, "ge1": {"E": "q1", "K": "q1k"}}
# The strand factors of _Ctx, per strand: name -> the shape of its leading
# axes, one ``[g, x - 1]`` array of entries per leading index.
_FACTOR_LEADS = {"adm": (), "kq": (), "gap": (len(_GAP_TERMS) - 1, len(_LABS)),
                 "bare": (len(_LABS),), "tail": (len(_LABS),), "prefix": ()}


def _out_keys(keys: tuple[tuple, ...]) -> tuple[tuple, ...]:
    return tuple(("out",) + k for k in keys)


# Outside accumulators (:mod:`jointfold.outside_prob`), laid out like the
# inside families: one per inside tensor, plus the hybrid-placement mass, the
# sum over the hybrid classes of each class's block-placement weight times its
# items, start anchored like them (_CombinedItems.transpose).
_OUT_FAMILIES: _Families = {
    "out_items": ((9,), _out_keys(_ITEM_ORDER)),
    "out_chain": ((16,), _out_keys(_CHAIN_KEYS)),
    "out_gap": ((2, 6), _out_keys(_GAP_KEYS)),
    "out_hyb": ((), (("out", "hyb"),)),
}
# The outside family of each inside one, by the name that the transposes give
# their targets, and of the placement mass ("hyb"), which no production reads.
_OUT_OF = {"items": "out_items", "chain": "out_chain", "rest": "out_gap", "hyb": "out_hyb"}
# The _Ctx arrays whose outside weight feeds base-pair probabilities (through
# the secondary tables); every other _Ctx operand is a constant.
_SEGMENTS = ("kq_r", "kq_s", "gap_r", "gap_s", "tail_r", "tail_s")


def _chain_rows(stack: np.ndarray) -> np.ndarray:
    """The view ``[x, l, ...]`` of a chain stack: slot 5x + l."""
    step, *cell = stack.strides
    return np.lib.stride_tricks.as_strided(
        stack, (3, len(_LABS)) + stack.shape[1:], (5 * step, step, *cell))


# the view that ``TensorStore.stacks`` holds of a family, where it is not the stack
_VIEWS = {"chain": _chain_rows, "out_chain": _chain_rows}


class CapacityExceeded(RuntimeError):
    """The configured memory budget cannot hold the DP tables."""

    def __init__(self, required_bytes: int, budget_bytes: int):
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"tables require {required_bytes} bytes, budget is {budget_bytes}"
        )


def _array_count(families: _Families) -> int:
    return sum(len(keys) for _lead, keys in families.values())


def _tensor_bytes(n: int, m: int, include_outside: bool = True) -> int:
    """Bytes of the 4D tensors: one ``(n, m, n, m)`` table per key of the
    families."""
    count = _array_count(_FAMILIES)
    if include_outside:
        count += _array_count(_OUT_FAMILIES)
    return count * (n * m) ** 2 * 8


def _wave_cells(n: int, m: int) -> int:
    """The most cells of one wave's block ``[p, q, nI, nH]``: ``max_p p(n-p+1)
    * max_q q(m-q+1)``."""
    return max(p * (n - p + 1) for p in range(1, n + 1)) * max(
        q * (m - q + 1) for q in range(1, m + 1))


def _strand_bytes(n: int) -> int:
    """Bytes of the arrays of one strand of length ``n``: the engine's planes,
    and per ``[g, x - 1]`` entry of a strand factor its int32 index, weight
    and value, and of the closing-arc factor its value (``arc_*`` is one byte
    per span)."""
    rows = sum(math.prod(lead) for lead in _FACTOR_LEADS.values())
    return planes_bytes(n) + (n + 2) * n * (rows * (4 + 8 + 8) + 8) + (n + 2)


def estimate_memory_bytes(n: int, m: int, include_outside: bool = True) -> int:
    """Bytes the engine will allocate for lengths (n, m): the 4D tables
    (inside, and with ``include_outside`` outside), the work buffers of the
    wave productions (``_operands``) and the arrays of both strands and of
    ``_Ctx`` (``wext``, ``step``, ``branch`` and ``gap_branch``)."""
    work = sum(_WORK_ROWS.values()) * _wave_cells(n, m) * 8
    # wext, step, and the 3 + 2 row blocks of branch and gap_branch
    grids = n * m + len(HY_CLASSES) * (n + 1) * (m + 1) + 5 * len(_LABS) * len(_ITEM_ORDER)
    return (_tensor_bytes(n, m, include_outside) + work + _strand_bytes(n) + _strand_bytes(m)
            + grids * 8)


class TensorStore:
    """Dense 4D arrays with byte accounting.

    Every table has the shape ``(n, m, n, m)``: cell ``(p, q, x, y)`` of
    spans p, q and anchors x, y (all 1-based) lies at index ``[p - 1, q - 1,
    x - 1, y - 1]``.  No cell lies outside the spans and anchors of the two
    strands.

    Each tensor family is one stacked allocation (see ``_FAMILIES`` and
    ``_OUT_FAMILIES``); every key in it is a view of one slice, so
    ``store[key]`` reads the same cells as a separate array would, and the
    stack counts the same bytes.  ``stacks[family]`` is the stack, or for a
    chain family its view ``[part, label, ...]``; ``flat(family)`` is the
    allocation itself.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.shape = (n, m, n, m)
        self.arrays: dict[tuple, np.ndarray] = {}
        self.stacks: dict[str, np.ndarray] = {}
        self.flats: dict[str, np.ndarray] = {}
        self.allocated_bytes = 0
        self.peak_bytes = 0

    def alloc_families(self, families: _Families, populate: bool = False) -> None:
        """Allocate one stack of zeros per family (``_FAMILIES`` or
        ``_OUT_FAMILIES``); the family's keys name its slices in C order.

        The zeros come from a private anonymous mapping, not ``np.zeros``:
        numpy asks for transparent huge pages on arrays of 4 MiB and more,
        and a 2 MiB page would make resident the unreachable anchor cells
        around every written one (a 24x24 inside run peaked 25 MB higher
        that way).  ``tracemalloc`` does not see these mappings.  With
        ``populate`` zeros are written over the reachable anchors of every
        span but the last, for families that are only ever added into: a
        first touch that reads before it writes faults twice, once on the
        shared zero page and once to copy it.  Pages that hold only anchors
        no wave reaches stay untouched, and so does the last R span, which
        the outside sweep reads but gives weight only on the top-level
        chains.  A family allocated again (a second ``outside``) replaces the
        old stack, in the byte count too.
        """
        for family, (lead, keys) in families.items():
            shape = lead + self.shape
            size = int(np.prod(shape))
            buf = mmap.mmap(-1, max(1, size * 8), flags=mmap.MAP_PRIVATE)
            flat = np.frombuffer(buf, dtype=np.float64, count=size)
            arr = flat.reshape(shape)
            if populate:
                # the anchors (x, y) of spans (p, q) in C order: up to (n - p
                # + 1, m - q + 1) for the start-anchored items and placement
                # mass, from (p, q) on for the end-anchored rest
                n, m, start = self.n, self.m, family in ("out_items", "out_hyb")
                planes = arr.reshape((-1, n, m, n * m))
                for p, q in itertools.product(range(1, n), range(1, m + 1)):
                    cells = (slice(0, (n - p) * m + m - q + 1) if start
                             else slice((p - 1) * m + q - 1, n * m))
                    planes[:, p - 1, q - 1, cells] = 0.0
            if family not in self.stacks:
                self.allocated_bytes += arr.nbytes
            self.flats[family] = flat
            self.stacks[family] = _VIEWS[family](arr) if family in _VIEWS else arr
            for key, view in zip(keys, arr.reshape((-1,) + self.shape), strict=True):
                self.arrays[key] = view
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)

    def __getitem__(self, key: tuple) -> np.ndarray:
        return self.arrays[key]

    def flat(self, family: str) -> np.ndarray:
        """The stack of an allocated family as one flat array (a view, never
        a copy)."""
        return self.flats[family]


class _Ctx:
    """Precomputed per-run grids: weights and strand factors.

    Every strand factor that a production reads is declared once, in
    ``factors``: its strand engine, and per entry a flat index into that
    engine's :attr:`SecEngine.planes` and a weight (:meth:`SecEngine.segment`
    gives both for one segment kind).  The factor is ``weight *
    planes.take(index)``, and :func:`jointfold.outside_prob.outside` scatters
    its outside weight back through the same index.  A factor indexes
    lengths ``g`` from 0 and anchors like the 4D tables, anchor ``x`` at
    ``x - 1``, written ``[g, x]`` below.  ``adm_*[g, x]`` is the
    admissibility of the arc over the segment of length ``g`` from ``x``, read
    off the engine's constant plane of arcs; ``close_*`` (the closing-arc
    factor of a tight block) and ``arc_*`` (whether any arc of a span is
    admissible) derive from it.  ``kq_*[g, x]`` is the segment inside a tight
    block's closing arc from ``x``; ``gap_*[t, l, g, x]`` the segments of the
    terms ``_GAP_TERMS[:3]`` of label ``l`` after an item, ``bare_*[l, g, x]``
    those of the bare term; ``tail_*[l, g, j]`` the tail of label ``l`` that
    ends at ``j`` (empty where the label is flush on that strand);
    ``prefix_r[p]`` is ``q(1, n-p)``, the structures of R left of a top-level
    chain of span ``p`` (``prefix_s`` likewise on S).  ``wext[j, l]`` is the
    weight of the exterior arc ``(j, l)``, at ``[j - 1, l - 1]``.
    """

    def __init__(self, sec_r: SecEngine, sec_s: SecEngine):
        model = sec_r.model
        n, m = sec_r.n, sec_s.n
        self.n, self.m = n, m
        self.ki = model.w_kiss_init
        self.kb = model.w_kiss_branch
        self.ku = model.w_kiss_unpaired

        w_ext = np.array([[model.w_ext(a, b) for b in ALPHABET] for a in ALPHABET])
        self.wext = w_ext[np.array(sec_r.strand.codes())[:, None], sec_s.strand.codes()]

        # step[c, gr, gs]: hybrid extension weight of class HY_CLASSES[c] by
        # gap sizes; the gap energy depends on gr + gs only
        by_sum = np.array([model.w_step_base(g, 0) for g in range(n + m + 1)])
        base = by_sum[np.add.outer(np.arange(n + 1), np.arange(m + 1))]
        b3 = model.w_beta3
        br = b3 ** np.arange(n + 1)
        bs = b3 ** np.arange(m + 1)
        self.step = np.stack([base, base * bs[None, :], base * br[:, None],
                              base * br[:, None] * bs[None, :]])

        # every strand factor: per strand, name -> (the segment kind and
        # exposure class of each entry of its leading axes (_FACTOR_LEADS), in
        # C order; end anchored)
        self.factors: dict[str, tuple[SecEngine, np.ndarray, np.ndarray]] = {}
        for k, (side, eng, length) in enumerate((("r", sec_r, n), ("s", sec_s, m))):
            classes = [(lab.class_r, lab.class_s)[k] for lab in _LABS]
            tails = ["any" if (lab.tail_r, lab.tail_s)[k] == "free" else "flush" for lab in _LABS]
            declared = {
                "adm": ([("adm", None)], False),
                "kq": ([("any", "K")], False),
                "gap": ([(term[k], c) for term in _GAP_TERMS[:3] for c in classes], False),
                "bare": ([(_GAP_TERMS[3][k], c) for c in classes], False),
                "tail": (list(zip(tails, classes)), True),
                "prefix": ([("any", "E")], False),
            }
            segment = cache(partial(self._segment, eng))  # a few kinds, many labels
            for name, (segments, end) in declared.items():
                pairs = [segment(kind, cls, end) for kind, cls in segments]
                lead = _FACTOR_LEADS[name]
                index, weight = (np.stack(a).reshape(lead + a[0].shape) for a in zip(*pairs))
                value = weight * eng.planes.take(index)
                if name == "prefix":  # q(1, n-p): the segment of length n-p from 1
                    index, weight, value = (a[length::-1, 0] for a in (index, weight, value))
                self.factors[f"{name}_{side}"] = eng, index, weight
                setattr(self, f"{name}_{side}", value)
        # arc[p]: any admissible arc of span p (else no tight block closes at
        # that span); the closing-arc factor of a tight block: kiss_init on
        # admissible arcs
        self.arc_r, self.arc_s = self.adm_r.any(axis=1), self.adm_s.any(axis=1)
        self.close_r, self.close_s = self.ki * self.adm_r, self.ki * self.adm_s

        # branch[row, t]: weight of item t in the combined item of one chain
        # row.  Row blocks, one row per label each, in the order of the chain
        # rows CNA, CNB, CHY that their tail terms fill: NA (the tight kinds
        # that CNA takes), EX (the kinds a flush label excludes from CNA's
        # tail, docs/grammar.md §4; zero for top/box) and HY (the label's
        # hybrid class).  Each kind carries its branch factor.
        nl = len(_LABS)
        self.branch = np.zeros((3 * nl, len(_ITEM_ORDER)))
        na, ex, hy = (self.branch[k * nl:(k + 1) * nl] for k in range(3))
        for row, lab in enumerate(_LABS):
            hy[row, _ITEM_ORDER.index(("hy", lab.hy_class))] = 1.0
            wbr_r = self.kb if lab.class_r == "K" else 1.0
            wbr_s = self.kb if lab.class_s == "K" else 1.0
            for key, wbr, excluded in (
                (("vee", lab.class_s), wbr_r, lab.tail_r == "flush"),
                (("tri", lab.class_r), wbr_s, lab.tail_s == "flush"),
                (("box",), wbr_r * wbr_s, lab.has_nb),
            ):
                (ex if excluded else na)[row, _ITEM_ORDER.index(key)] = wbr
        # rows NA and EX weight only the tight kinds, rows HY only the hybrids
        assert not self.branch[: 2 * nl, _HY].any() and not hy[:, _TIGHT].any()
        # the rows NA + EX and HY, which the 4D part of the sweep reads
        # (_CombinedItems.fill with gap); NA + EX is exact, since no kind has
        # a weight in both
        self.gap_branch = np.concatenate((na + ex, hy))

    def _segment(self, eng: SecEngine, kind: str, cls: str, end: bool):
        """The index and weight of one segment kind of exposure class
        ``cls``: a table of ``SEGMENT_TABLES``, the arcs' admissibility
        ("adm"), all unpaired ("unp") or empty ("flush")."""
        if kind in SEGMENT_TABLES:
            return eng.segment(SEGMENT_TABLES[kind][cls], end)
        if kind == "adm":
            return eng.segment("adm", end)
        return eng.segment(None, end, 0.0 if kind == "flush" else self.ku if cls == "K" else 1.0)


@dataclass
class InsideResult:
    """Filled inside tables plus the total joint partition function."""

    R: Strand
    S: Strand
    model: EnergyModel
    sec_r: SecEngine
    sec_s: SecEngine
    store: TensorStore
    ctx: _Ctx
    q_total: float
    q_no_interaction: float
    memory_estimate_bytes: int
    # the budget ``inside`` was given; ``outside`` holds its tables to it too
    memory_budget_bytes: int | None = None

    @property
    def q_r(self) -> float:
        return self.sec_r.q_total()

    @property
    def q_s(self) -> float:
        return self.sec_s.q_total()

    def value(self, key: tuple, i: int, j: int, h: int, l: int) -> float:
        """Scalar tensor read for cell (i,j;h,l), any anchoring."""
        if j < i or l < h:
            return 0.0
        arr = self.store[key]
        if key[0] in ("hy", "vee", "tri", "box"):
            return float(arr[j - i, l - h, i - 1, h - 1])
        return float(arr[j - i, l - h, j - 1, l - 1])


def inside(
    R: Strand,
    S: Strand,
    model: EnergyModel,
    memory_budget_bytes: int | None = None,
) -> InsideResult:
    """Fill all tensors bottom-up and return the joint partition function.

    ``q_total`` is the Boltzmann-weighted sum over exactly the validate-
    admissible joint structures; every structure contributes through exactly
    one parse tree.  Asymptotics: O(N^3 M^3) time, O(N^2 M^2) space.

    Raises:
        CapacityExceeded: the estimate exceeds ``memory_budget_bytes``.
        NumericalUnderflow: ``q_total`` is not finite and positive (the
            weights overflow or underflow float64).
    """
    est = estimate_memory_bytes(len(R), len(S), include_outside=False)
    if memory_budget_bytes is not None and est > memory_budget_bytes:
        raise CapacityExceeded(est, memory_budget_bytes)

    sec_r = fold(R, model)
    sec_s = fold(S, model)
    ctx = _Ctx(sec_r, sec_s)
    n, m = ctx.n, ctx.m
    store = TensorStore(n, m)
    store.alloc_families(_FAMILIES)

    src = _operands(store, ctx)
    for p, q in _waves(n, m):
        w = _Wave(ctx, p, q)
        if p == q == 1:  # the hybrid base case
            store.stacks["items"][_HY, 0, 0] = ctx.wext
        _fill_wave(src, w)

    q_ni = sec_r.q_total() * sec_s.q_total()
    q_total = q_ni + _top_interaction_sum(store, ctx)
    check_partition_function(q_total)
    return InsideResult(
        R=R, S=S, model=model, sec_r=sec_r, sec_s=sec_s, store=store, ctx=ctx,
        q_total=q_total, q_no_interaction=q_ni,
        memory_estimate_bytes=est, memory_budget_bytes=memory_budget_bytes,
    )


def _waves(n: int, m: int) -> list[tuple[int, int]]:
    """Span pairs (p, q) in fill order: by p + q, then by p."""
    return [(p, t - p) for t in range(2, n + m + 1)
            for p in range(max(1, t - m), min(n, t - 1) + 1)]


def _top_chains(store: TensorStore, ctx: _Ctx) -> np.ndarray:
    """The top-level chains ``[p - 1, q - 1]`` of spans p, q that end at ``(n, m)``."""
    top = store.stacks["chain"][_NA_HY, 0, :, :, ctx.n - 1, ctx.m - 1]
    return top[0] + top[1]


def _top_interaction_sum(store: TensorStore, ctx: _Ctx) -> float:
    """Sum over the top-level chains of their weight times the secondary
    structures left of them on each strand."""
    return float(ctx.prefix_r[1:] @ _top_chains(store, ctx) @ ctx.prefix_s[1:])


# -- the wave productions ------------------------------------------------------

_ALL = slice(None)


def _rev(k: int) -> slice:
    """Spans k, k-1, ..., 1 of a table (at index k - 1 down to 0)."""
    return slice(k - 1, None, -1) if k > 0 else slice(0, 0)


def _down(k: int) -> slice:
    """Lengths k, k-1, ..., 0 of a strand factor or of ``step``."""
    return slice(k, None, -1)


class _Wave:
    """The span pair (p, q) of one wave and the index slices of its cells: a
    table holds span p at index ``sp = p - 1``, and a table or a strand factor
    anchor x at index x - 1."""

    def __init__(self, ctx: _Ctx, p: int, q: int):
        nI, nH = ctx.n - p + 1, ctx.m - q + 1
        self.p, self.q = p, q
        self.sp, self.sq = p - 1, q - 1
        self.I, self.H = slice(0, nI), slice(0, nH)  # cell starts 1..nI
        self.J, self.L = slice(p - 1, p - 1 + nI), slice(q - 1, q - 1 + nH)  # cell ends p..n
        # the content of a tight block starts after and ends before its arc
        # (read at spans p, q >= 3 only)
        self.I2, self.H2 = slice(1, nI + 1), slice(1, nH + 1)
        self.J1, self.L1 = slice(p - 2, p - 2 + nI), slice(q - 2, q - 2 + nH)
        self.tight_r = p >= 3 and bool(ctx.arc_r[p])
        self.tight_s = q >= 3 and bool(ctx.arc_s[q])
        # a gap of span >= 1 on both strands fits after an item
        self.gap = p >= 2 and q >= 2


def _has_outside(name: str) -> bool:
    return name in _OUT_OF or name in _SEGMENTS or name in _PER_WAVE


def _broadcast(letters: str, target: str) -> tuple:
    """Index that gives an array with ``letters`` the axes of ``target``."""
    assert [c for c in target if c in letters] == list(letters), (letters, target)
    return tuple(_ALL if c in letters else None for c in target)


class _Prod:
    """One wave production and its transpose.

    ``text`` is the einsum with named operands, ``"lhs[ij] = a[ik] b[kj]"``;
    a name is a stored family, a ``_Ctx`` array, or an operand formed per
    wave in a work buffer (``ci``, ``ch_all``, ``ch_nohy``).
    ``at(wave)`` gives the index of the lhs and of each operand; ``when``
    guards the wave.  With ``rows``, result row k is summed into lhs row
    ``rows[k]``; with ``add``, the result is added to the lhs.  ``live`` maps
    an operand to the rows of its leading axis (taken whole by ``at``) that
    carry outside weight; the other rows are constants.

    The transpose into operand A of ``C = einsum(A, B, ...)`` adds
    ``einsum(C_out, B, ... -> A)`` to A's outside target at A's own index: a
    letter of A that no other operand carries is broadcast, and a product
    that sums over nothing is a plain ``*``.  Constants (the ``_Ctx`` arrays
    not in ``_SEGMENTS``) have no target; those whose letters are all C's
    are multiplied into ``C_out`` once, before the transposes.  The values a
    transpose reads are all formed before the wave's transposes run: the
    stored families, the ``_Ctx`` arrays, ``ci`` and, in the strand part,
    CH_all (no transpose reads CH_nohy).  ``sparse`` marks a production
    whose lhs can lack outside weight at a wave: the flush-tail rows, which
    no top-level chain reaches, and GHY/GNA (with the bare term's GHY),
    which have none where no longer chain follows.  Where its ``C_out`` is
    zero throughout the wave's cells, the transpose adds nothing and is
    skipped.  Every other lhs holds cells that the top-level chains weight at
    each wave, so it is not checked.

    ``grads`` holds one entry per operand with an outside target; ``parts``
    splits it into the 4D targets and the strand factors, and ``transpose``
    runs one part.  With ``first``, the production is the first in the 4D
    part of the sweep to write its per-wave target (the gap block of ci's
    outside weight, see ``_CombinedItems``), so its transpose writes it
    instead of adding: a grad broadcast over the leading letter of the target
    (``pad``) writes the first row and copies it into the others.
    """

    def __init__(self, text: str, at: Callable, when=None, rows=None, add=False,
                 live=None, sparse=False, first=False):
        (self.lhs, out), *self.ops = re.findall(r"(\w+)\[(\w+)\]", text)
        self.at, self.when, self.add, self.sparse, self.first = at, when, add, sparse, first
        self.rows = rows and np.array(rows)
        # the result rows summed into each lhs row (one or two)
        self.groups = rows and [(r, [k for k, x in enumerate(rows) if x == r]) for r in set(rows)]
        assert not rows or max(len(ks) for _r, ks in self.groups) <= 2
        self.spec = ",".join(spec for _name, spec in self.ops) + "->" + out
        # constants carried by C's letters alone are multiplied into C_out once
        self.fold = [(j, _broadcast(spec, out)) for j, (name, spec) in enumerate(self.ops)
                     if not _has_outside(name) and set(spec) <= set(out)]
        folded = {j for j, _bc in self.fold}
        self.grads = []
        for k, (name, spec) in enumerate(self.ops):
            if _has_outside(name):
                others = [j for j in range(len(self.ops)) if j != k and j not in folded]
                specs = [out] + [self.ops[j][1] for j in others]
                res = "".join(c for c in spec if c in "".join(specs))
                how = (",".join(specs) + "->" + res if len(specs) > 2 or set(res) != set("".join(specs))
                       else [_broadcast(x, res) for x in specs])
                lv = (live or {}).get(name)
                cuts = [lv and spec[0] in x and (_ALL,) * x.index(spec[0]) + (lv,) for x in specs]
                pad = None if res == spec else _broadcast(res, spec)
                self.grads.append((k + 1, name, others, how, pad, lv, cuts))
        # the two parts of the transpose: the 4D targets, then the strand factors
        self.parts = [[g for g in self.grads if (g[1] in _SEGMENTS) == strand]
                      for strand in (False, True)]

    def _args(self, src: dict, idx: tuple) -> list:
        """The einsum arguments; None for an operand that is not formed."""
        return [None if name not in src else src[name][i] for (name, _spec), i in zip(self.ops, idx[1:])]

    def fill(self, src: dict, w: _Wave) -> None:
        if self.when is not None and not self.when(w):
            return
        idx = self.at(w)
        args, lhs = self._args(src, idx), src[self.lhs][idx[0]]
        if self.rows is not None:
            res = np.einsum(self.spec, *args)
            for row, ks in self.groups:
                if len(ks) == 1:
                    lhs[row] = res[ks[0]]
                else:
                    np.add(res[ks[0]], res[ks[1]], out=lhs[row])
        elif self.add:
            lhs += np.einsum(self.spec, *args)
        else:
            np.einsum(self.spec, *args, out=lhs)

    def transpose(self, src: dict, out: dict, adj: dict | None, w: _Wave,
                  strand: bool = False) -> None:
        """Pass on the outside weight of the lhs to the targets of one part
        of the transpose: the 4D targets (the outside families and the
        per-wave operands of ``adj``), or with ``strand`` the strand factors
        of ``_SEGMENTS``."""
        grads = self.parts[strand]
        if not grads or (self.when is not None and not self.when(w)):
            return
        idx = self.at(w)
        o = out[self.lhs][idx[0]]
        if self.sparse and not o.any():  # no outside weight reached the lhs
            return
        if self.rows is not None:
            o = o[self.rows]
        args = self._args(src, idx)
        for j, bc in self.fold:
            o = o * args[j][bc]
        for op, name, others, how, pad, live, cuts in grads:
            arrays = [o] + [args[j] for j in others]
            if live is not None:
                arrays = [a[cut] if cut else a for a, cut in zip(arrays, cuts)]
            if name not in out and name not in adj:  # a chain sum has one reader, which covers it whole
                adj[name] = _grad(how, arrays, None)
                continue
            target = idx[op] if live is None else (live,) + idx[op][1:]
            dest = (out if name in out else adj)[name][target]
            if self.first and name not in out:  # pad broadcasts the leading letter: copies of row 0
                c = _grad(how, arrays, dest if pad is None else dest[0])
                if pad is not None:
                    dest[1:] = c
                continue
            c = _grad(how, arrays, None)
            dest += c if pad is None else c[pad]


def _grad(how, arrays: list, out: np.ndarray | None) -> np.ndarray:
    """The product of one grad, written into ``out`` or, without one, into
    a new array: an einsum, or a product of two broadcast operands (which
    ``out`` may broadcast further)."""
    if isinstance(how, str):
        return np.einsum(how, *arrays, out=out)
    return np.multiply(arrays[0][how[0]], arrays[1][how[1]], out=out)


class _CombinedItems:
    """Derived ``ci[x, l, a, b, i, h]``: the items of spans (a+1, b+1)
    starting at (i, h), weighted by row block x (NA, EX, HY) of
    ``ctx.branch`` for chain label l, formed in the ``ci`` work buffer.  Rows
    NA and EX weight only the tight kinds and rows HY only the hybrids, so
    the transpose takes each block of ``branch`` on its own.  It also adds
    the hybrid-placement mass: the outside weight that the block placements
    give each hybrid class, times that class's items, summed over the
    classes into the ``hyb`` target at the items' own cells.

    The 4D part of the sweep reads ci only in the two gap productions, over
    the gap block of spans (p-1, q-1), as NA + EX and as HY; ``fill`` with
    ``gap`` forms just those rows.  Their outside weight is written first
    there (``_Prod.first``), NA's into row NA and a copy of it into row EX, so
    only the edge spans a = p-1 or b = q-1 start at zero
    (``_transpose_wave``)."""

    @staticmethod
    def at(w: _Wave) -> tuple:
        return (_ALL, slice(0, w.p), slice(0, w.q), w.I, w.H)

    def fill(self, src: dict, w: _Wave, gap: bool = False) -> None:
        """Form ci, or with ``gap`` its rows NA + EX and HY over the gap
        block (``ctx.gap_branch``), indexed as ``_GapItems``."""
        items = src["items"][_ALL, : w.p - gap, : w.q - gap, w.I, w.H]
        flat = _work(src, "scratch", items.shape, items)
        branch = src["gap_branch" if gap else "branch"]
        ci = _work(src, "ci", (len(branch) // len(_LABS), len(_LABS)) + items.shape[1:])
        np.matmul(branch, flat.reshape(len(flat), -1), out=ci.reshape(len(branch), -1))
        src["ci"] = _GapItems((ci[:1], ci[1])) if gap else ci

    def transpose(self, src: dict, out: dict, adj: dict, w: _Wave) -> None:
        o = adj.pop("ci").reshape(3 * len(_LABS), -1)
        cells = self.at(w)[1:]
        block = out["items"][(_ALL,) + cells]
        res = _work(src, "scratch", (len(_ITEM_ORDER),) + block.shape[1:])
        flat, branch, hy = res.reshape(len(res), -1), src["branch"], 2 * len(_LABS)
        np.matmul(branch[hy:, _HY].T, o[hy:], out=flat[_HY])
        np.matmul(branch[:hy, _TIGHT].T, o[:hy], out=flat[_TIGHT])
        block += res
        out["hyb"][cells] += np.einsum("cpqih,cpqih->pqih", res[_HY], src["items"][(_HY,) + cells])


class _ChainAll:
    """CH_nohy = CNA + CNB and CH_all = CH_nohy + CHY over the span block
    that GHY/GNA read, formed per wave in the ``ch_nohy`` and ``scratch``
    work buffers: contiguous, so the einsums that read them pass over them
    at full speed (over a strided view of the store about half as fast, once
    per letter that the operand lacks).  Neither is stored, and neither has
    an outside family: the transpose passes the outside weight that GHY/GNA
    gave CH_all and the bare term gave CH_nohy on to the parts, over that
    block, if they gave any."""

    @staticmethod
    def at(w: _Wave) -> tuple:
        return (_rev(w.p), _rev(w.q), w.J, w.L)

    def fill(self, src: dict, w: _Wave) -> None:
        chain, block = src["chain"], self.at(w)
        cna = chain[(_CNA, _ALL) + block]
        nohy = src["ch_nohy"] = _work(src, "ch_nohy", cna.shape, cna)
        nohy[_NB] += chain[(_CNB, _NB) + block]
        src["ch_all"] = np.add(nohy, chain[(_CHY, _ALL) + block],
                               out=_work(src, "scratch", cna.shape))

    def transpose(self, src: dict, out: dict, adj: dict, w: _Wave) -> None:
        # a skipped reader leaves no weight; the bare term fills GHY, one of
        # the rows of GHY/GNA, so it is skipped whenever they are
        if "ch_all" not in adj:
            return
        o_all, o_nohy = adj.pop("ch_all"), adj.pop("ch_nohy", None)
        chain, block = out["chain"], self.at(w)
        chain[(_CHY, _ALL) + block] += o_all
        if o_nohy is not None:
            o_all = np.add(o_nohy, o_all, out=o_nohy)
        chain[(_CNA, _ALL) + block] += o_all
        chain[(_CNB, _NB) + block] += o_all[_NB]


class _GapItems(tuple):
    """ci as ``_CombinedItems.fill`` forms it with ``gap``, ``(NA + EX,
    HY)``, indexed as the two gap productions index ci: rows NA and EX give
    NA + EX (one row, which their sum over the rows passes through), row HY
    gives HY."""

    def __getitem__(self, idx: tuple) -> np.ndarray:
        return tuple.__getitem__(self, idx[0] == _CHY)


_CI, _CH_ALL = _CombinedItems(), _ChainAll()
# The operands with no outside family: the outside weight of each is gathered
# per wave (``adj`` of _transpose_wave) and passed back by the transpose of
# _CombinedItems or _ChainAll.
_PER_WAVE = ("ci", "ch_all", "ch_nohy")

# The productions of one wave (docs/grammar.md §4), in fill order.
_WAVE = (
    # HY[c](i,j;h,l) = ext_arc(j,l) * sum HY[c](i,i1;h,h1) * step_c
    _Prod("items[cih] = items[cabih] step[cab] wext[ih]",
          lambda w: ((_HY, w.sp, w.sq, w.I, w.H),
                     (_HY, slice(0, w.sp), slice(0, w.sq), w.I, w.H),
                     (_ALL, _down(w.p - 2), _down(w.q - 2)), (w.J, w.L)),
          when=lambda w: w.p >= 2 and w.q >= 2),
    # VEE[Ys], TRI[Yr], BOX: the content chain is CNA + CHY (axis k)
    _Prod("items[cih] = chain[kcgih] kq_r[gi] close_r[i]",
          lambda w: ((_VEE_ITEMS, w.sp, w.sq, w.I, w.H),
                     (_NA_HY, _VEE_LABELS, _rev(w.p - 2), w.sq, w.J1, w.L),
                     (slice(0, w.p - 2), w.I2), (w.p, w.I)),
          when=lambda w: w.tight_r),
    _Prod("items[cih] = chain[kcgih] kq_s[gh] close_s[h]",
          lambda w: ((_TRI_ITEMS, w.sp, w.sq, w.I, w.H),
                     (_NA_HY, _TRI_LABELS, w.sp, _rev(w.q - 2), w.J, w.L1),
                     (slice(0, w.q - 2), w.H2), (w.q, w.H)),
          when=lambda w: w.tight_s),
    _Prod("items[ih] = chain[kabih] kq_r[ai] kq_s[bh] close_r[i] close_s[h]",
          lambda w: ((_BOX_ITEM, w.sp, w.sq, w.I, w.H),
                     (_NA_HY, _BOX_LABEL, _rev(w.p - 2), _rev(w.q - 2), w.J1, w.L1),
                     (slice(0, w.p - 2), w.I2), (slice(0, w.q - 2), w.H2),
                     (w.p, w.I), (w.q, w.H)),
          when=lambda w: w.tight_r and w.tight_s),
    _CI,
    # The first item, then the tail alone: rows NA, EX, HY of the combined
    # items times TAIL = tail_r (x) tail_s give the tail terms of CNA, CNB and
    # CHY.  A flush tail is empty, so there the item spans the region: the
    # vee labels (flush on S) read one S span of the items, the tri labels
    # (flush on R) one R span; top and box have no CNB.
    _Prod("chain[xlih] = ci[xlabih] tail_r[lai] tail_s[lbh]",
          lambda w: ((_NA_HY, _TOP_BOX, w.sp, w.sq, w.J, w.L), (_NA_HY, _TOP_BOX),
                     (_TOP_BOX, _down(w.p - 1), w.J), (_TOP_BOX, _down(w.q - 1), w.L))),
    _Prod("chain[xlih] = ci[xlaih] tail_r[lai]",
          lambda w: ((_ALL, _VEE_LABELS, w.sp, w.sq, w.J, w.L),
                     (_ALL, _VEE_LABELS, _ALL, w.q - 1), (_VEE_LABELS, _down(w.p - 1), w.J)),
          sparse=True),
    _Prod("chain[xlih] = ci[xlbih] tail_s[lbh]",
          lambda w: ((_ALL, _TRI_LABELS, w.sp, w.sq, w.J, w.L),
                     (_ALL, _TRI_LABELS, w.p - 1), (_TRI_LABELS, _down(w.q - 1), w.L)),
          sparse=True),
    # The first item, then a gap of spans >= 1: EX·GNA + NA·GNA into CNA
    # (axis k), HY·GHY into CHY
    _Prod("chain[lih] = ci[klabih] rest[labih]",
          lambda w: ((_CNA, _ALL, w.sp, w.sq, w.J, w.L),
                     (slice(0, 2), _ALL, slice(0, w.p - 1), slice(0, w.q - 1)),
                     (1, _ALL, _rev(w.p - 1), _rev(w.q - 1), w.J, w.L)),
          when=lambda w: w.gap, add=True, first=True),
    _Prod("chain[lih] = ci[labih] rest[labih]",
          lambda w: ((_CHY, _ALL, w.sp, w.sq, w.J, w.L),
                     (_CHY, _ALL, slice(0, w.p - 1), slice(0, w.q - 1)),
                     (0, _ALL, _rev(w.p - 1), _rev(w.q - 1), w.J, w.L)),
          when=lambda w: w.gap, add=True, first=True),
    _CH_ALL,
    # GHY, GNA: the terms of _GAP_TERMS over CH_all, then the bare GHY term
    # over CH_nohy = CNA + CNB
    _Prod("rest[tlih] = ch_all[labih] gap_r[tlai] gap_s[tlbh]",
          lambda w: ((slice(0, 2), _ALL, w.sp, w.sq, w.J, w.L), _ALL,
                     (_ALL, _ALL, slice(0, w.p), w.I), (_ALL, _ALL, slice(0, w.q), w.H)),
          rows=(0, 0, 1), live={"gap_r": slice(1, 3)}, sparse=True),
    _Prod("rest[lih] = ch_nohy[labih] bare_r[lai] bare_s[lbh]",
          lambda w: ((0, _ALL, w.sp, w.sq, w.J, w.L), _ALL,
                     (_ALL, slice(0, w.p), w.I), (_ALL, slice(0, w.q), w.H)),
          add=True, sparse=True),
)


# The per-run work buffers, in rows of the largest wave's block (_operands):
# the combined items, their outside weight, CH_nohy, and a scratch buffer
# whose contents live within one step of a wave (the item block that ci is
# formed from, the product that passes ci's outside weight on to the items,
# CH_all from its forming to GHY/GNA's fill or strand transposes).
_WORK_ROWS = {"ci": 3 * len(_LABS), "out_ci": 3 * len(_LABS), "ch_nohy": len(_LABS),
              "scratch": len(_ITEM_ORDER)}


def _operands(store: TensorStore, ctx: _Ctx) -> dict:
    """Every array a production may read, by name: the _Ctx arrays, the
    stored families and (under ``work``) the work buffers, sized for the
    largest wave block (``_wave_cells``); ``np.empty`` leaves the pages that
    no wave reaches untouched."""
    cells = _wave_cells(ctx.n, ctx.m)
    work = {name: np.empty(rows * cells) for name, rows in _WORK_ROWS.items()}
    return {**vars(ctx), **store.stacks, "work": work}


def _work(src: dict, name: str, shape: tuple, value=None) -> np.ndarray:
    """Work buffer ``name`` as a contiguous array of ``shape``, holding
    ``value`` (an array or a scalar) if one is given, else whatever it held
    before."""
    arr = src["work"][name][: math.prod(shape)].reshape(shape)
    if value is not None:
        np.copyto(arr, value)
    return arr


def _fill_wave(src: dict, w: _Wave) -> None:
    """Evaluate the productions of one wave in order."""
    for prod in _WAVE:
        prod.fill(src, w)


# The productions with strand-factor targets, in reverse fill order.
_STRAND_PRODS = tuple(prod for prod in reversed(_WAVE)
                      if isinstance(prod, _Prod) and prod.parts[True])


def _transpose_wave(src: dict, out: dict, w: _Wave, strand: bool = False) -> None:
    """Add one part of the transpose of every production of one wave, in
    reverse order.

    ``out`` maps each inside family (``_OUT_OF``) to its outside
    accumulator, and with ``strand`` each of ``_SEGMENTS`` too.  The combined
    items are formed first, for the transposes that read them, and with
    ``strand`` CH_all after them, for GHY/GNA's.  Without
    ``strand`` the 4D part runs: the outside weight of the combined items
    and the chain sums starts at zero and is passed on to the stored parts.
    With ``strand`` only the transposes into the strand factors run; they
    read the outside weight of their lhs, which must be final, as it is once
    the 4D part has run at every wave: a cell gets outside weight only from
    larger waves and from later productions of its own wave.
    """
    if strand:
        _CI.fill(src, w)
        _CH_ALL.fill(src, w)  # in the scratch buffer, which ci was formed through
        for prod in _STRAND_PRODS:
            prod.transpose(src, out, None, w, True)
        return
    if w.gap:
        _CI.fill(src, w, gap=True)
    adj = {"ci": _work(src, "out_ci", (3, len(_LABS), w.p, w.q, w.I.stop, w.H.stop))}
    adj["ci"][:, :, w.p - 1] = adj["ci"][:, :, : w.p - 1, w.q - 1] = 0.0  # the gap block is written first
    for prod in reversed(_WAVE):
        prod.transpose(src, out, adj, w)
