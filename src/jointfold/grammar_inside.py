"""Inside algorithm: 4D partition-function tables over the block grammar.

The production system is frozen in ``docs/grammar.md``.  Cells are pairs of
subsequences ``(i,j;h,l)``; every tensor is indexed ``[span_r, span_s,
anchor_r, anchor_s]`` where the anchor is the cell *start* for item tensors
(hybrids and tight blocks) and the cell *end* for chain/gap tensors.  The
end-anchored layout makes every recursion a contraction over aligned span
axes with constant position offsets.

Each tensor family is one stacked allocation with the chain label (or item
kind) as a leading axis (``_FAMILIES``); ``store[key]`` is a view of one
slice.  A wave (fixed span pair) therefore fills all labels, hybrid classes
and tight kinds at once: at most 8 ``numpy.einsum`` calls and one matrix
product (hybrids 1, tight blocks 3, chains 2 plus the product that forms the
branch-weighted item of every chain row, gaps 2).  The outside transpose in
:mod:`jointfold.outside_prob` makes at most 19 einsum calls and 2 matrix
products per wave (gaps 4, chains 4 + 2, items 11).  Averaged over the
waves of a 12x12 pair that is 6 inside and 14 outside einsum calls.

Under a unit model every entry is an ensemble count; the brute-force oracle
checks both the counts and the weighted sums cell for cell (via the
per-cell case enumeration in ``_cases.py``, shared with the sampler).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel
from .secfold import SecTables, fold
from .seq_model import Strand

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

# Stacked tensor families: name -> (leading stack shape, keys in C order).
# Items are start anchored [.., p, q, i, h]; chains and the "rest" rows
# (gap tensors, then the derived AFT continuations) end anchored [.., p, q, j, l].
_FAMILIES: _Families = {
    "items": ((9,), _ITEM_ORDER),
    "chain": ((2, 6), tuple((f, L) for f in ("chy", "cna") for L in LABELS)),
    "cnb": ((4,), tuple(("cnb", lab.name) for lab in _NB_LABS)),
    "rest": ((4, 6), _GAP_KEYS + tuple((f, L) for f in ("aft_hy", "aft_na")
                                       for L in LABELS)),
}


def _out_keys(keys: tuple[tuple, ...]) -> tuple[tuple, ...]:
    return tuple(("out",) + k for k in keys)


# Outside accumulators (:mod:`jointfold.outside_prob`), laid out like the
# inside families: one per inside tensor except the derived AFT rows, plus
# the block-placement accumulators of the four hybrid classes (rows 9:13 of
# the outside items).
_OUT_FAMILIES: _Families = {
    "out_items": ((13,), _out_keys(_ITEM_ORDER + tuple(("hyb", c) for c in HY_CLASSES))),
    "out_chain": ((2, 6), _out_keys(_FAMILIES["chain"][1])),
    "out_cnb": ((4,), _out_keys(_FAMILIES["cnb"][1])),
    "out_gap": ((2, 6), _out_keys(_GAP_KEYS)),
}


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


def estimate_memory_bytes(n: int, m: int, include_outside: bool = True) -> int:
    """Bytes of table storage the engine will allocate for lengths (n, m)."""
    cell = (n + 2) * (m + 2) * (n + 2) * (m + 2) * 8
    count = _array_count(_FAMILIES)
    if include_outside:
        count += _array_count(_OUT_FAMILIES)
    twod = 2 * 16 * (max(n, m) + 2) ** 2 * 8  # per-strand tables and diagonals
    return count * cell + twod


class TensorStore:
    """Dense 4D arrays with byte accounting.

    Each tensor family is one stacked allocation (see ``_FAMILIES`` and
    ``_OUT_FAMILIES``); every
    key in it is a view of one slice, so ``store[key]`` reads the same cells
    as a separate array would, and the stack counts the same bytes.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.shape = (n + 2, m + 2, n + 2, m + 2)
        self.arrays: dict[tuple, np.ndarray] = {}
        self.stacks: dict[str, np.ndarray] = {}
        self.allocated_bytes = 0
        self.peak_bytes = 0

    def alloc_families(self, families: _Families) -> None:
        """Allocate one stack of zeros per family (``_FAMILIES`` or
        ``_OUT_FAMILIES``); the family's keys name its slices in C order.

        The zeros come from a private anonymous mapping, not ``np.zeros``:
        numpy asks for transparent huge pages on arrays of 4 MiB and more,
        and a 2 MiB page would make resident the unreachable anchor cells
        around every written one (a 24x24 inside run peaked 25 MB higher
        that way).  ``tracemalloc`` does not see these mappings.
        """
        for family, (lead, keys) in families.items():
            shape = lead + self.shape
            size = int(np.prod(shape))
            buf = mmap.mmap(-1, max(1, size * 8), flags=mmap.MAP_PRIVATE)
            arr = np.frombuffer(buf, dtype=np.float64, count=size).reshape(shape)
            self.stacks[family] = arr
            for key, view in zip(keys, arr.reshape((-1,) + self.shape), strict=True):
                self.arrays[key] = view
            self.allocated_bytes += arr.nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)

    def __getitem__(self, key: tuple) -> np.ndarray:
        return self.arrays[key]

    def __contains__(self, key: tuple) -> bool:
        return key in self.arrays


class _Ctx:
    """Precomputed per-run grids: admissibility, weights, segment diagonals."""

    def __init__(self, R: Strand, S: Strand, model: EnergyModel,
                 sec_r: SecTables, sec_s: SecTables):
        self.R, self.S, self.model = R, S, model
        self.sec_r, self.sec_s = sec_r, sec_s
        n, m = len(R), len(S)
        self.n, self.m = n, m
        self.ki = model.w_kiss_init
        self.kb = model.w_kiss_branch
        self.ku = model.w_kiss_unpaired

        self.wext = np.zeros((n + 2, m + 2))
        for i in range(1, n + 1):
            for h in range(1, m + 1):
                self.wext[i, h] = model.w_ext(R.base(i), S.base(h))

        # adm[p, i] = interior-arc admissibility of (i, i+p-1); arc[p]: any
        # admissible arc of span p (else no tight block closes at that span)
        self.adm_r = self._adm_grid(R)
        self.adm_s = self._adm_grid(S)
        self.arc_r = self.adm_r.any(axis=1)
        self.arc_s = self.adm_s.any(axis=1)
        # closing-arc factor of a tight block: kiss_init on admissible arcs
        self.close_r = self.ki * self.adm_r
        self.close_s = self.ki * self.adm_s

        # STEP[cls][gr, gs]: hybrid extension weight by gap sizes
        self.step = {}
        base = np.zeros((n + 1, m + 1))
        for gr in range(n + 1):
            for gs in range(m + 1):
                base[gr, gs] = model.w_step_base(gr, gs)
        b3 = model.w_beta3
        br = b3 ** np.arange(n + 1)
        bs = b3 ** np.arange(m + 1)
        self.step["EE"] = base
        self.step["EK"] = base * bs[None, :]
        self.step["KE"] = base * br[:, None]
        self.step["KK"] = base * br[:, None] * bs[None, :]

        # Segment diagonals, start anchored: sq_*[strand][cls][g, x] is the
        # weight of a segment of length g starting at x; end anchored tq_*.
        self.sq_any, self.sq_ge1, self.sq_unp = {}, {}, {}
        self.tq_any = {}
        for sid, sec, ln in (("R", sec_r, n), ("S", sec_s, m)):
            eng = sec.engine
            self.sq_any[sid] = {}
            self.sq_ge1[sid] = {}
            self.sq_unp[sid] = {}
            self.tq_any[sid] = {}
            for cls, anyk, ge1k in (("E", "q", "q1"), ("K", "qk", "q1k")):
                sq = np.zeros((ln + 2, ln + 2))
                s1 = np.zeros((ln + 2, ln + 2))
                su = np.zeros((ln + 2, ln + 2))
                tq = np.zeros((ln + 2, ln + 2))
                uw = self.ku if cls == "K" else 1.0
                for g in range(0, ln + 1):
                    for x in range(1, ln + 2 - g):
                        sq[g, x] = eng.value(anyk, x, x + g - 1)
                        s1[g, x] = eng.value(ge1k, x, x + g - 1)
                        su[g, x] = uw ** g
                    for j in range(g, ln + 1):
                        if g == 0:
                            tq[g, j] = 1.0
                        else:
                            tq[g, j] = eng.value(anyk, j - g + 1, j)
                # tails of length 0 anchored anywhere are weight 1
                tq[0, :] = 1.0
                sq[0, :] = 1.0
                su[0, :] = 1.0
                self.sq_any[sid][cls] = sq
                self.sq_ge1[sid][cls] = s1
                self.sq_unp[sid][cls] = su
                self.tq_any[sid][cls] = tq
        self.tq_flush_r = np.zeros((n + 2, n + 2))
        self.tq_flush_r[0, :] = 1.0
        self.tq_flush_s = np.zeros((m + 2, m + 2))
        self.tq_flush_s[0, :] = 1.0
        self._label_stacks()

    def _adm_grid(self, strand: Strand) -> np.ndarray:
        ln = len(strand)
        arr = np.zeros((ln + 2, ln + 2))
        for p in range(2, ln + 1):
            for i in range(1, ln - p + 2):
                j = i + p - 1
                if j - i - 1 >= self.model.min_hairpin and self.model.pairable(
                    strand.base(i), strand.base(j)
                ):
                    arr[p, i] = 1.0
        return arr

    def tq_r(self, label: ChainLabel) -> np.ndarray:
        if label.tail_r == "flush":
            return self.tq_flush_r
        return self.tq_any["R"][label.class_r]

    def tq_s(self, label: ChainLabel) -> np.ndarray:
        if label.tail_s == "flush":
            return self.tq_flush_s
        return self.tq_any["S"][label.class_s]

    def _label_stacks(self) -> None:
        """Per-label operand stacks, indexed like the label axis of the store."""

        def per_label(fn) -> np.ndarray:
            return np.stack([fn(lab) for lab in _LABS])

        sq_r, sq_s = self.sq_any["R"], self.sq_any["S"]
        # gap segment factors: term t of the GNA/GHY sums is gap_r[t] (x)
        # gap_s[t] over a chain sum; t = GNA, GHY(A, R arc), GHY(A, S arc)
        # over CH_all, then GHY(both bare) over CH_nohy
        self.gap_r = np.stack([
            per_label(lambda lab: sq_r[lab.class_r]),
            per_label(lambda lab: self.sq_ge1["R"][lab.class_r]),
            per_label(lambda lab: self.sq_unp["R"][lab.class_r]),
            per_label(lambda lab: self.sq_unp["R"][lab.class_r]),
        ])
        self.gap_s = np.stack([
            per_label(lambda lab: sq_s[lab.class_s]),
            per_label(lambda lab: sq_s[lab.class_s]),
            per_label(lambda lab: self.sq_ge1["S"][lab.class_s]),
            per_label(lambda lab: self.sq_unp["S"][lab.class_s]),
        ])
        self.tail_r = per_label(self.tq_r)
        self.tail_s = per_label(self.tq_s)
        self.step_stack = np.stack([self.step[c] for c in HY_CLASSES])

        # branch[row, t]: weight of item t in the combined item of one chain
        # row.  Row blocks, one row per label each: EX (the kinds a flush
        # label excludes from CNA's tail, docs/grammar.md §4; zero for
        # top/box), HY (the label's hybrid class), NA (the other tight kinds)
        # and ALL = NA + EX.  Each kind carries its branch factor.
        nl = len(_LABS)
        self.branch = np.zeros((4 * nl, len(_ITEM_ORDER)))
        ex, hy, na, all_ = (self.branch[k * nl:(k + 1) * nl] for k in range(4))
        for row, lab in enumerate(_LABS):
            hy[row, _ITEM_ORDER.index(("hy", lab.hy_class))] = 1.0
            wbr_r = self.kb if lab.class_r == "K" else 1.0
            wbr_s = self.kb if lab.class_s == "K" else 1.0
            for key, wbr, excluded in (
                (("vee", lab.class_s), wbr_r, lab.tail_r == "flush"),
                (("tri", lab.class_r), wbr_s, lab.tail_s == "flush"),
                (("box",), wbr_r * wbr_s, lab.has_nb),
            ):
                t = _ITEM_ORDER.index(key)
                (ex if excluded else na)[row, t] = wbr
                all_[row, t] = wbr


@dataclass
class InsideResult:
    """Filled inside tables plus the total joint partition function."""

    R: Strand
    S: Strand
    model: EnergyModel
    sec_r: SecTables
    sec_s: SecTables
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
        p, q = j - i + 1, l - h + 1
        arr = self.store[key]
        if key[0] in ("hy", "vee", "tri", "box"):
            return float(arr[p, q, i, h])
        return float(arr[p, q, j, l])

    def chain_value(self, parts, name: str, a: int, b: int, c: int, d: int) -> float:
        lab = LABELS[name]
        total = 0.0
        for part in parts:
            if part == "nb" and not lab.has_nb:
                continue
            total += self.value((
                {"hy": "chy", "na": "cna", "nb": "cnb"}[part], name), a, b, c, d)
        return total


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
    """
    est = estimate_memory_bytes(len(R), len(S), include_outside=False)
    if memory_budget_bytes is not None and est > memory_budget_bytes:
        raise CapacityExceeded(est, memory_budget_bytes)

    sec_r = fold(R, model)
    sec_s = fold(S, model)
    ctx = _Ctx(R, S, model, sec_r, sec_s)
    n, m = ctx.n, ctx.m
    store = TensorStore(n, m)
    store.alloc_families(_FAMILIES)

    _init_aft_edges(store, ctx)
    for t in range(2, n + m + 1):
        for p in range(max(1, t - m), min(n, t - 1) + 1):
            q = t - p
            _fill_items(store, ctx, p, q)
            _fill_chains(store, ctx, p, q)
            _fill_gaps(store, ctx, p, q)

    q_ni = sec_r.q_total() * sec_s.q_total()
    q_int = _top_interaction_sum(store, ctx)
    return InsideResult(
        R=R, S=S, model=model, sec_r=sec_r, sec_s=sec_s, store=store, ctx=ctx,
        q_total=q_ni + q_int, q_no_interaction=q_ni,
        memory_estimate_bytes=est, memory_budget_bytes=memory_budget_bytes,
    )


def _top_interaction_sum(store: TensorStore, ctx: _Ctx) -> float:
    n, m = ctx.n, ctx.m
    qr = ctx.sec_r.engine
    qs = ctx.sec_s.engine
    total = 0.0
    chy = store[("chy", "top")]
    cna = store[("cna", "top")]
    for p in range(1, n + 1):
        wr = qr.value("q", 1, n - p)
        if wr == 0.0:
            continue
        for q in range(1, m + 1):
            v = chy[p, q, n, m] + cna[p, q, n, m]
            if v != 0.0:
                total += wr * qs.value("q", 1, m - q) * v
    return total


def _init_aft_edges(store: TensorStore, ctx: _Ctx) -> None:
    """Continuation rows with an empty remainder on one or both strands."""
    n, m = ctx.n, ctx.m
    aft = store.stacks["rest"][2:4]
    aft[:, :, 0, 0, :, :] = 1.0
    aft[:, :, 0, 1 : m + 1, :, :] = ctx.tail_s[:, 1 : m + 1, None, :]
    aft[:, :, 1 : n + 1, 0, :, :] = ctx.tail_r[:, 1 : n + 1, :, None]


def _fill_items(store: TensorStore, ctx: _Ctx, p: int, q: int) -> None:
    n, m = ctx.n, ctx.m
    nI, nH = n - p + 1, m - q + 1
    isl = slice(1, nI + 1)
    hsl = slice(1, nH + 1)
    jsl = slice(p, p + nI)
    lsl = slice(q, q + nH)
    items, chain = store.stacks["items"], store.stacks["chain"]

    # hybrids, all four classes at once
    if p == 1 and q == 1:
        items[_HY, 1, 1, 1 : n + 1, 1 : m + 1] = ctx.wext[1 : n + 1, 1 : m + 1]
    elif p >= 2 and q >= 2:
        # step for prefix spans (dp,dq): gaps (p-dp-1, q-dq-1)
        kern = ctx.step_stack[:, p - 2 :: -1, q - 2 :: -1][:, : p - 1, : q - 1]
        np.einsum("cabih,cab,ih->cih", items[_HY, 1:p, 1:q, isl, hsl], kern,
                  ctx.wext[jsl, lsl], out=items[_HY, p, q, isl, hsl])

    # The content chain of a tight block is CHY+CNA (summed over axis k).
    # tight_r (closed by an R arc): content chain is S-flush with span q
    if p >= 3 and ctx.arc_r[p]:
        lead = ctx.sq_any["R"]["K"][0 : p - 2, 2 : 2 + nI]
        chains = chain[:, _VEE_LABELS, p - 2 : 0 : -1, q, p - 1 : p - 1 + nI, lsl]
        np.einsum("kcgih,gi,i->cih", chains, lead, ctx.close_r[p, isl],
                  out=items[_VEE_ITEMS, p, q, isl, hsl])

    # tight_s (closed by an S arc)
    if q >= 3 and ctx.arc_s[q]:
        lead = ctx.sq_any["S"]["K"][0 : q - 2, 2 : 2 + nH]
        chains = chain[:, _TRI_LABELS, p, q - 2 : 0 : -1, jsl, q - 1 : q - 1 + nH]
        np.einsum("kcgih,gh,h->cih", chains, lead, ctx.close_s[q, hsl],
                  out=items[_TRI_ITEMS, p, q, isl, hsl])

    # tight_rs (closed on both strands)
    if p >= 3 and q >= 3 and ctx.arc_r[p] and ctx.arc_s[q]:
        lead_r = ctx.sq_any["R"]["K"][0 : p - 2, 2 : 2 + nI]
        lead_s = ctx.sq_any["S"]["K"][0 : q - 2, 2 : 2 + nH]
        chains = chain[:, _BOX_LABEL, p - 2 : 0 : -1, q - 2 : 0 : -1,
                       p - 1 : p - 1 + nI, q - 1 : q - 1 + nH]
        np.einsum("kabih,ai,bh,i,h->ih", chains, lead_r, lead_s,
                  ctx.close_r[p, isl], ctx.close_s[q, hsl],
                  out=items[_BOX_ITEM, p, q, isl, hsl])


def _combined_items(store: TensorStore, ctx: _Ctx, p: int, q: int,
                    rows: slice) -> np.ndarray:
    """``ctx.branch[rows]`` applied to the items over spans 1..p x 1..q.

    Returns ``[row block, label, a, b, i, h]``: the item of spans (a+1, b+1)
    starting at (i, h), one combined item per chain row.
    """
    nI, nH = ctx.n - p + 1, ctx.m - q + 1
    block = store.stacks["items"][:, 1 : p + 1, 1 : q + 1, 1 : nI + 1, 1 : nH + 1]
    return (ctx.branch[rows] @ block.reshape(len(_ITEM_ORDER), -1)).reshape(
        (-1, len(_LABS), p, q, nI, nH))


def _following(store: TensorStore, p: int, q: int, jsl: slice, lsl: slice,
               fams: slice) -> np.ndarray:
    """Rest rows that follow an item in a chain ending at (j, l), reversed so
    that axis (a, b) pairs with the item of spans (a+1, b+1)."""
    return store.stacks["rest"][fams, :, p - 1 :: -1, q - 1 :: -1, jsl, lsl]


def _fill_chains(store: TensorStore, ctx: _Ctx, p: int, q: int) -> None:
    jsl = slice(p, ctx.n + 1)
    lsl = slice(q, ctx.m + 1)
    # rows EX, HY, NA against GNA, AFT_hy, AFT_na
    items = _combined_items(store, ctx, p, q, slice(0, 18))
    parts = np.einsum("xlabih,xlabih->xlih", items,
                      _following(store, p, q, jsl, lsl, slice(1, 4)))
    chain = store.stacks["chain"][:, :, p, q, jsl, lsl]
    chain[0] = parts[1]
    np.add(parts[2], parts[0], out=chain[1])
    # CNB: the excluded kinds followed by the tail alone
    np.einsum("labih,lai,lbh->lih", items[0, _NB], ctx.tail_r[_NB, p - 1 :: -1, jsl],
              ctx.tail_s[_NB, q - 1 :: -1, lsl], out=store.stacks["cnb"][:, p, q, jsl, lsl])


def _chain_sums(store: TensorStore, p: int, q: int, jsl: slice, lsl: slice):
    """CH_all and CH_nohy over chain spans 1..p x 1..q, reversed (g = p - rp)."""
    block = (slice(p, 0, -1), slice(q, 0, -1), jsl, lsl)
    chain = store.stacks["chain"]
    nohy = chain[(1, slice(None)) + block].copy()
    nohy[_NB] += store.stacks["cnb"][(slice(None),) + block]
    return nohy + chain[(0, slice(None)) + block], nohy


def _fill_gaps(store: TensorStore, ctx: _Ctx, p: int, q: int) -> None:
    nI, nH = ctx.n - p + 1, ctx.m - q + 1
    jsl = slice(p, p + nI)
    lsl = slice(q, q + nH)
    xsl = slice(1, nI + 1)
    ysl = slice(1, nH + 1)

    all_block, nohy_block = _chain_sums(store, p, q, jsl, lsl)
    # the terms of ctx.gap_r over CH_all, then the bare one over CH_nohy
    terms = np.einsum("labih,tlai,tlbh->tlih", all_block,
                      ctx.gap_r[0:3, :, 0:p, xsl], ctx.gap_s[0:3, :, 0:q, ysl])
    rest = store.stacks["rest"][:, :, p, q, jsl, lsl]
    rest[1] = terms[0]
    np.add(terms[1], terms[2], out=rest[0])
    rest[0] += np.einsum("labih,lai,lbh->lih", nohy_block,
                         ctx.gap_r[3, :, 0:p, xsl], ctx.gap_s[3, :, 0:q, ysl])
    # AFT = gap + tail
    tail = ctx.tail_r[:, p, jsl, None] * ctx.tail_s[:, q, None, lsl]
    np.add(rest[0:2], tail, out=rest[2:4])
