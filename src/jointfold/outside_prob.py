"""Outside pass: component, base-pair, hybrid and target-site probabilities.

The sweep visits waves in the reverse of the inside order and applies the
transpose of every inside production: for a term ``C += A * B * k`` it
accumulates ``out_A += out_C * B * k`` and ``out_B += out_C * A * k``.  The
outside value of a cell times its inside value, divided by the total
partition function, is the probability that a parse contains the component
at that cell; the top-level placements seed the sweep.  Like the fill, each
wave transposes every chain label, hybrid class and tight kind at once on the
stacked tensor families of the inside store.

Base-pair probabilities combine three sources: tight-block closing arcs
(read off the block tensors directly), arcs inside secondary segments
(propagated into the per-strand tables and swept by the 2D outside), and
exterior arcs (each arc is the last arc of exactly one anchored hybrid
prefix).  Hybrid probabilities come from the block-placement accumulator
only, which is exactly the maximal-hybrid placement mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._cases import verify_reconstruction
from .grammar_inside import (
    _BOX_ITEM,
    _BOX_LABEL,
    _HY,
    _LABS,
    _NB,
    _OUT_FAMILIES,
    _R_CLOSED,
    _S_CLOSED,
    _TRI_ITEMS,
    _TRI_LABELS,
    _VEE_ITEMS,
    _VEE_LABELS,
    HY_CLASSES,
    CapacityExceeded,
    InsideResult,
    _chain_sums,
    _combined_items,
    _following,
    estimate_memory_bytes,
)
from .secfold import check_partition_function

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
    """Maximal-hybrid footprint probabilities, per class and total."""

    n: int
    m: int
    per_class: dict[str, np.ndarray]  # start-anchored [p, q, i, h]
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
        n, m = self.ctx.n, self.ctx.m
        self.n, self.m = n, m
        # diagonal accumulators [g,x] / [g,j] for segment and tail factors
        self.out_sq = {
            sid: {k: np.zeros((ln + 2, ln + 2)) for k in ("q", "q1", "qk", "q1k")}
            for sid, ln in (("R", n), ("S", m))
        }
        self.out_tq = {
            sid: {k: np.zeros((ln + 2, ln + 2)) for k in ("q", "qk")}
            for sid, ln in (("R", n), ("S", m))
        }
        # per-label accumulators, folded into out_sq / out_tq by exposure
        # class at the end: the gap factors (axis 0 as in ctx.gap_r/gap_s)
        # and the chain tails (flush-tail rows are constants and dropped)
        self.acc_gap_r = np.zeros((2,) + self.ctx.gap_r.shape[1:])
        self.acc_gap_s = np.zeros((3,) + self.ctx.gap_s.shape[1:])
        self.acc_tail_r = np.zeros(self.ctx.tail_r.shape)
        self.acc_tail_s = np.zeros(self.ctx.tail_s.shape)
        # interval accumulators (i,j) for top-level segments
        self.out_iv = {
            sid: {k: np.zeros((ln + 2, ln + 2)) for k in ("q",)}
            for sid, ln in (("R", n), ("S", m))
        }
        self.bpp_ext_mass = np.zeros((n + 2, m + 2))
        self.bpr_diag = np.zeros((n + 2, n + 2))  # [p, i]: R tight closers
        self.bps_diag = np.zeros((m + 2, m + 2))
        # chain rows EX, HY, NA -> outside item rows, then the hybrid rows
        # again for the block-placement accumulators
        rows = self.ctx.branch[0:18].T
        self.to_items = np.concatenate((rows, rows[_HY]))

    # -- seeds ---------------------------------------------------------------

    def seed_top(self) -> None:
        ctx, store = self.ctx, self.store
        n, m = self.n, self.m
        qr, qs = ctx.sec_r.engine, ctx.sec_s.engine
        self.out_iv["R"]["q"][1, n] += qs.value("q", 1, m)
        self.out_iv["S"]["q"][1, m] += qr.value("q", 1, n)
        for p in range(1, n + 1):
            wr = qr.value("q", 1, n - p)
            for q in range(1, m + 1):
                ws = qs.value("q", 1, m - q)
                w = wr * ws
                if w == 0.0:
                    continue
                store[("out", "chy", "top")][p, q, n, m] += w
                store[("out", "cna", "top")][p, q, n, m] += w
                chain_val = (
                    store[("chy", "top")][p, q, n, m]
                    + store[("cna", "top")][p, q, n, m]
                )
                if chain_val != 0.0:
                    if n - p >= 1:
                        self.out_iv["R"]["q"][1, n - p] += ws * chain_val
                    if m - q >= 1:
                        self.out_iv["S"]["q"][1, m - q] += wr * chain_val

    # -- per-wave transposes, all labels at once ------------------------------

    def gaps(self, p: int, q: int) -> None:
        ctx, stacks = self.ctx, self.store.stacks
        nI, nH = self.n - p + 1, self.m - q + 1
        jsl = slice(p, p + nI)
        lsl = slice(q, q + nH)
        xsl = slice(1, nI + 1)
        ysl = slice(1, nH + 1)
        chain_rows = (slice(p, 0, -1), slice(q, 0, -1), jsl, lsl)

        o_gap = stacks["out_gap"][:, :, p, q, jsl, lsl]  # [ghy, gna]
        o_terms = o_gap[[1, 0, 0]]  # outside weight of the terms over CH_all
        seg_r = ctx.gap_r[:, :, 0:p, xsl]
        seg_s = ctx.gap_s[:, :, 0:q, ysl]
        all_block = _chain_sums(self.store, p, q, jsl, lsl)[0]

        # into the chains: CH_all gets the three terms over it, CH_nohy also
        # the bare one
        out_chain = stacks["out_chain"][(slice(None), slice(None)) + chain_rows]
        to_all = np.einsum("tlih,tlai,tlbh->labih", o_terms, seg_r[0:3], seg_s[0:3])
        out_chain[0] += to_all
        to_all += np.einsum("lih,lai,lbh->labih", o_gap[0], seg_r[3], seg_s[3])
        out_chain[1] += to_all
        stacks["out_cnb"][(slice(None),) + chain_rows] += to_all[_NB]

        # into the segment factors of the terms over CH_all (the unpaired
        # factors are constants)
        self.acc_gap_r[:, :, 0:p, xsl] += np.einsum(
            "tlih,labih,tlbh->tlai", o_terms[0:2], all_block, seg_s[0:2])
        self.acc_gap_s[:, :, 0:q, ysl] += np.einsum(
            "tlih,labih,tlai->tlbh", o_terms, all_block, seg_r[0:3])

    def chains(self, p: int, q: int) -> None:
        """Transpose of (combined item) x (following rest row) for all rows."""
        ctx, stacks = self.ctx, self.store.stacks
        nI, nH = self.n - p + 1, self.m - q + 1
        jsl = slice(p, p + nI)
        lsl = slice(q, q + nH)
        item_blk = (slice(None), slice(1, p + 1), slice(1, q + 1),
                    slice(1, nI + 1), slice(1, nH + 1))
        tail_r = ctx.tail_r[:, p - 1 :: -1, jsl]
        tail_s = ctx.tail_s[:, q - 1 :: -1, lsl]
        o_chain = stacks["out_chain"][:, :, p, q, jsl, lsl]  # [chy, cna]
        o_cnb = stacks["out_cnb"][:, p, q, jsl, lsl]

        # into the items: rows EX, HY, NA were contracted with GNA (+ the
        # tail, through CNB), AFT_hy and AFT_na
        partner = o_chain[[1, 0, 1], :, None, None] * _following(
            self.store, p, q, jsl, lsl, slice(1, 4))
        partner[0, _NB] += np.einsum("lih,lai,lbh->labih", o_cnb,
                                     tail_r[_NB], tail_s[_NB])
        stacks["out_items"][item_blk] += (
            self.to_items @ partner.reshape(self.to_items.shape[1], -1)
        ).reshape((-1, p, q, nI, nH))
        del partner  # before the combined items below: peak temporaries

        # into the gap tensors (rows with gap spans >= 1 only): AFT_hy = GHY
        # + tail follows the HY rows, GNA follows every tight kind (ALL)
        items = _combined_items(self.store, ctx, p, q, slice(None))
        if p > 1 and q > 1:
            gap_rows = (slice(None), slice(None), slice(p - 1, 0, -1),
                        slice(q - 1, 0, -1), jsl, lsl)
            stacks["out_gap"][gap_rows] += (
                o_chain[:, :, None, None] * items[1::2, :, : p - 1, : q - 1])

        # into the free tails, through rows EX (CNB), HY (CHY) and NA (CNA);
        # the flush tails are constants, their rows are dropped at the end
        o_rows = np.zeros((3,) + o_chain.shape[1:])
        o_rows[0, _NB] = o_cnb
        o_rows[1:] = o_chain
        by_tail = np.einsum("xlih,xlabih->labih", o_rows, items[0:3])
        self.acc_tail_r[:, 0:p, jsl] += np.einsum(
            "labih,lbh->lai", by_tail, tail_s)[:, ::-1]
        self.acc_tail_s[:, 0:q, lsl] += np.einsum(
            "labih,lai->lbh", by_tail, tail_r)[:, ::-1]

    def items(self, p: int, q: int) -> None:
        ctx, stacks = self.ctx, self.store.stacks
        nI, nH = self.n - p + 1, self.m - q + 1
        isl = slice(1, nI + 1)
        hsl = slice(1, nH + 1)
        jsl = slice(p, p + nI)
        lsl = slice(q, q + nH)
        out_items, out_chain = stacks["out_items"], stacks["out_chain"]
        chain = stacks["chain"]

        # exterior-arc mass of the hybrids, closing-arc mass of the tight
        # blocks (R-closed and S-closed kinds) at this wave
        o_items = out_items[:, p, q, isl, hsl]
        in_items = stacks["items"][:, p, q, isl, hsl]
        self.bpp_ext_mass[jsl, lsl] += np.einsum(
            "cih,cih->ih", o_items[_HY], in_items[_HY])
        if ctx.arc_r[p]:
            self.bpr_diag[p, isl] += np.einsum(
                "cih,cih->i", o_items[_R_CLOSED], in_items[_R_CLOSED])
        if ctx.arc_s[q]:
            self.bps_diag[q, hsl] += np.einsum(
                "cih,cih->h", o_items[_S_CLOSED], in_items[_S_CLOSED])

        # hybrid prefix peeling
        if p >= 2 and q >= 2:
            kern = ctx.step_stack[:, p - 2 :: -1, q - 2 :: -1][:, : p - 1, : q - 1]
            out_items[_HY, 1:p, 1:q, isl, hsl] += np.einsum(
                "cih,ih,cab->cabih", o_items[_HY], ctx.wext[jsl, lsl], kern)

        # the content chain is CHY+CNA: the same weight goes to both parts
        # tight_r
        if p >= 3 and ctx.arc_r[p]:
            lead = ctx.sq_any["R"]["K"][0 : p - 2, 2 : 2 + nI]
            oa = ctx.close_r[p, isl, None] * o_items[_VEE_ITEMS]
            rows = (slice(None), _VEE_LABELS, slice(p - 2, 0, -1), q,
                    slice(p - 1, p - 1 + nI), lsl)
            out_chain[rows] += np.einsum("cih,gi->cgih", oa, lead)
            self.out_sq["R"]["qk"][0 : p - 2, 2 : 2 + nI] += np.einsum(
                "cih,kcgih->gi", oa, chain[rows])

        # tight_s
        if q >= 3 and ctx.arc_s[q]:
            lead = ctx.sq_any["S"]["K"][0 : q - 2, 2 : 2 + nH]
            oa = ctx.close_s[q, hsl] * o_items[_TRI_ITEMS]
            rows = (slice(None), _TRI_LABELS, p, slice(q - 2, 0, -1), jsl,
                    slice(q - 1, q - 1 + nH))
            out_chain[rows] += np.einsum("cih,gh->cgih", oa, lead)
            self.out_sq["S"]["qk"][0 : q - 2, 2 : 2 + nH] += np.einsum(
                "cih,kcgih->gh", oa, chain[rows])

        # tight_rs
        if p >= 3 and q >= 3 and ctx.arc_r[p] and ctx.arc_s[q]:
            lead_r = ctx.sq_any["R"]["K"][0 : p - 2, 2 : 2 + nI]
            lead_s = ctx.sq_any["S"]["K"][0 : q - 2, 2 : 2 + nH]
            oa = ctx.close_r[p, isl, None] * ctx.close_s[q, hsl] * o_items[_BOX_ITEM]
            rows = (slice(None), _BOX_LABEL, slice(p - 2, 0, -1), slice(q - 2, 0, -1),
                    slice(p - 1, p - 1 + nI), slice(q - 1, q - 1 + nH))
            out_chain[rows] += np.einsum("ih,ai,bh->abih", oa, lead_r, lead_s)
            self.out_sq["R"]["qk"][0 : p - 2, 2 : 2 + nI] += np.einsum(
                "ih,kabih,bh->ai", oa, chain[rows], lead_s)
            self.out_sq["S"]["qk"][0 : q - 2, 2 : 2 + nH] += np.einsum(
                "ih,kabih,ai->bh", oa, chain[rows], lead_r)

    def fold_label_accumulators(self) -> None:
        """Add the per-label accumulators into the per-class diagonals."""
        any_kind = {"E": "q", "K": "qk"}
        ge1_kind = {"E": "q1", "K": "q1k"}
        for k, lab in enumerate(_LABS):
            self.out_sq["R"][any_kind[lab.class_r]] += self.acc_gap_r[0, k]
            self.out_sq["R"][ge1_kind[lab.class_r]] += self.acc_gap_r[1, k]
            self.out_sq["S"][any_kind[lab.class_s]] += (
                self.acc_gap_s[0, k] + self.acc_gap_s[1, k])
            self.out_sq["S"][ge1_kind[lab.class_s]] += self.acc_gap_s[2, k]
            if lab.tail_r == "free":
                self.out_tq["R"][any_kind[lab.class_r]] += self.acc_tail_r[k]
            if lab.tail_s == "free":
                self.out_tq["S"][any_kind[lab.class_s]] += self.acc_tail_s[k]

    # -- finalisation --------------------------------------------------------

    def sec_seeds(self, sid: str) -> dict[str, np.ndarray]:
        ln = self.n if sid == "R" else self.m
        eng = (self.ctx.sec_r if sid == "R" else self.ctx.sec_s).engine
        seeds = {k: np.zeros((ln + 2, ln + 2)) for k in eng.kinds}
        for kind, diag in self.out_sq[sid].items():
            for g in range(1, ln + 1):
                for x in range(1, ln - g + 2):
                    w = diag[g, x]
                    if w != 0.0:
                        seeds[kind][x, x + g - 1] += w
        for kind, diag in self.out_tq[sid].items():
            for g in range(1, ln + 1):
                for j in range(g, ln + 1):
                    w = diag[g, j]
                    if w != 0.0:
                        seeds[kind][j - g + 1, j] += w
        for kind, iv in self.out_iv[sid].items():
            seeds[kind] += iv
        return seeds


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
    for t in range(n + m, 1, -1):
        for p in range(max(1, t - m), min(n, t - 1) + 1):
            q = t - p
            sweep.gaps(p, q)
            sweep.chains(p, q)
            sweep.items(p, q)
    sweep.fold_label_accumulators()

    z = res.q_total
    bpp_r = np.zeros((n + 2, n + 2))
    bpp_s = np.zeros((m + 2, m + 2))
    for p in range(2, n + 1):
        for i in range(1, n - p + 2):
            bpp_r[i, i + p - 1] += sweep.bpr_diag[p, i]
    for q in range(2, m + 1):
        for h in range(1, m - q + 2):
            bpp_s[h, h + q - 1] += sweep.bps_diag[q, h]

    eng_r = res.sec_r.engine
    eng_s = res.sec_s.engine
    out2d_r = eng_r.outside(sweep.sec_seeds("R"))
    out2d_s = eng_s.outside(sweep.sec_seeds("S"))
    bpp_r += eng_r.arc_probabilities(out2d_r, 1.0)
    bpp_s += eng_s.arc_probabilities(out2d_s, 1.0)
    bpp_r /= z
    bpp_s /= z
    bpp_ext = sweep.bpp_ext_mass / z

    tpf = None
    if verify_conservation:
        tpf = verify_reconstruction(res, rel_tol=1e-9)

    return ProbTables(
        res=res, z=z, bpp_r=bpp_r, bpp_s=bpp_s, bpp_ext=bpp_ext,
        tpf_max_deviation=tpf,
    )


def hybrid_probabilities(res: InsideResult, prob: ProbTables) -> HybridProbMatrix:
    """P(a maximal hybrid occupies exactly footprint (i..j, h..l)).

    The four class tensors are independent contributions; the total is their
    sum per cell.
    """
    store = res.store
    per_class = {}
    total = None
    for cls in HY_CLASSES:
        arr = store[("out", "hyb", cls)] * store[("hy", cls)] / prob.z
        per_class[cls] = arr
        total = arr.copy() if total is None else total + arr
    return HybridProbMatrix(n=res.ctx.n, m=res.ctx.m, per_class=per_class, total=total)


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
