"""Single-strand partition functions with class-priced exposure tables.

The joint-structure grammar consumes secondary structure through a handful
of 2D tables per strand:

* ``qb``   - structures closed by an arc (standard hairpin / interior /
             stack / multiloop decomposition; with ``forbid_lone_pairs``
             the closed table requires helices of length >= 2),
* ``q``    - any structure, exposure-free pricing (exterior class),
* ``q1``   - like ``q`` but at least one top-level branch,
* ``qk``   - any structure, kissing-class pricing for exposed branches and
             unpaired bases,
* ``q1k``  - kissing-class with at least one branch,
* ``qm``/``qm1`` - multi-class helpers used inside ``qb``.

The multi- and kissing-class tables are one recursion instantiated with two
affine weight classes.  Every recursion is written once as a per-cell case
enumeration (:meth:`SecEngine.cases`) shared by the fill, the outside sweep
and the stochastic traceback, so the three can never drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel
from .seq_model import Strand

__all__ = [
    "NumericalUnderflow",
    "SecTables",
    "SecEngine",
    "check_partition_function",
    "fold",
    "pick",
    "pick_with_slack",
    "secondary_bpp",
]

# Case record: (weight, children, own_arc) where children are (kind, i, j).
Case = tuple[float, tuple, tuple | None]

_EMPTY_ONE = ("q", "qk")  # tables whose empty interval has value 1

# Fill order of the tables of one cell: a case reads cells of the same span
# only from kinds earlier in this order.  The helix tables exist only with
# ``forbid_lone_pairs``.
FILL_ORDER = ("qend", "qbh", "qb", "qm1", "qm", "q", "q1", "qk", "q1k")
_HELIX = ("qend", "qbh")


class NumericalUnderflow(RuntimeError):
    """A partition function or a case distribution failed to normalise."""


def check_partition_function(q: float) -> None:
    """Refuse a partition function that is not finite and positive.

    Raises:
        NumericalUnderflow: ``q`` is NaN, infinite, zero or negative.
    """
    if not (math.isfinite(q) and q > 0.0):
        raise NumericalUnderflow(f"partition function is {float(q)!r}")


@dataclass
class SecTables:
    """Filled single-strand tables (immutable after fill).

    ``q``/``qb``/``qm``/``qk`` are (L+2)x(L+2) arrays indexed 1-based with
    ``q[i, i-1] == 1`` by convention.  Under a unit model all entries are
    ensemble counts.
    """

    strand: Strand
    model: EnergyModel
    q: np.ndarray
    qb: np.ndarray
    qm: np.ndarray
    qk: np.ndarray
    engine: "SecEngine"

    def q_total(self) -> float:
        return float(self.q[1, len(self.strand)])


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
        kinds = [k for k in FILL_ORDER if self.nolp or k not in _HELIX]
        self.kinds = kinds
        size = self.n + 2
        self.tables: dict[str, np.ndarray] = {
            k: np.zeros((size, size)) for k in kinds
        }
        for k in _EMPTY_ONE:
            for i in range(1, size):
                self.tables[k][i, i - 1] = 1.0
        # loop weights that depend on sizes only, read by cases() for every cell
        self._w_multi_init = model.w_multi_init
        self._w_multi_branch = model.w_multi_branch
        self._w_interior = [
            [model.w_interior(a, b) for b in range(self.n)] for a in range(self.n)
        ]
        self._w_multi_unpaired = [model.w_multi_unpaired ** k for k in range(size)]
        self._filled = False

    # -- admissibility ----------------------------------------------------

    def adm(self, i: int, j: int) -> bool:
        """Interior-arc admissibility: pair type plus hairpin size."""
        if j - i - 1 < self.model.min_hairpin:
            return False
        return self.model.pairable(self.seq[i - 1], self.seq[j - 1])

    def _ilw(self, i: int, j: int, p: int, q: int) -> float:
        """Interior-loop step weight from closing (i,j) to inner (p,q)."""
        if p == i + 1 and q == j - 1:
            return self.model.w_stack(
                self.seq[i - 1] + self.seq[j - 1], self.seq[p - 1] + self.seq[q - 1]
            )
        return self._w_interior[p - i - 1][j - q - 1]

    # -- recursion cases ----------------------------------------------------

    def cases(self, kind: str, i: int, j: int) -> list[Case]:
        """All production cases of one cell; mutually exclusive and complete.

        Each case is (weight, children, own_arc); the cell value is the sum
        over cases of weight times the product of child values.
        """
        m = self.model
        bk = self.branch_kind
        out: list[Case] = []
        if kind == "qb":
            if not self.adm(i, j):
                return out
            out.append((m.w_hairpin(j - i - 1), (), (i, j)))
            for p in range(i + 1, j):
                for q in range(p + 1, j):
                    out.append((self._ilw(i, j, p, q), (("qb", p, q),), (i, j)))
            for k in range(i + 2, j - 1):
                out.append(
                    (self._w_multi_init, (("qm", i + 1, k - 1), ("qm1", k, j - 1)), (i, j))
                )
        elif kind == "qbh":
            # Helix of length >= 2 starting at (i,j).
            if not (self.adm(i, j) and self.adm(i + 1, j - 1)):
                return out
            w = m.w_stack(
                self.seq[i - 1] + self.seq[j - 1], self.seq[i] + self.seq[j - 2]
            )
            out.append((w, (("qend", i + 1, j - 1),), (i, j)))
            out.append((w, (("qbh", i + 1, j - 1),), (i, j)))
        elif kind == "qend":
            # Last pair of a helix; its loop must not be a stack.
            if not self.adm(i, j):
                return out
            out.append((m.w_hairpin(j - i - 1), (), (i, j)))
            for p in range(i + 1, j):
                for q in range(p + 1, j):
                    if p == i + 1 and q == j - 1:
                        continue
                    out.append(
                        (self._w_interior[p - i - 1][j - q - 1], (("qbh", p, q),), (i, j))
                    )
            for k in range(i + 2, j - 1):
                out.append(
                    (self._w_multi_init, (("qm", i + 1, k - 1), ("qm1", k, j - 1)), (i, j))
                )
        elif kind == "qm1":
            # Exactly one branch starting at i, trailing unpaired bases.
            for l in range(i + 1, j + 1):
                out.append(
                    (
                        self._w_multi_branch * self._w_multi_unpaired[j - l],
                        ((bk, i, l),),
                        None,
                    )
                )
        elif kind == "qm":
            # Split at the last branch; prefix all-unpaired or >= 1 branch.
            for k in range(i, j + 1):
                out.append((self._w_multi_unpaired[k - i], (("qm1", k, j),), None))
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

    # -- fill ---------------------------------------------------------------

    def value(self, kind: str, i: int, j: int) -> float:
        if j == i - 1:
            return 1.0 if kind in _EMPTY_ONE else 0.0
        if j < i - 1:
            return 1.0 if kind in _EMPTY_ONE else 0.0
        return float(self.tables[kind][i, j])

    def _cells(self) -> dict[str, list[list[float]]]:
        """The tables as nested lists, for scalar reads in the sweeps below.

        Every child interval of :meth:`cases` has ``j >= i - 1``, where the
        tables already hold the empty-interval convention of :meth:`value`.
        """
        return {k: arr.tolist() for k, arr in self.tables.items()}

    def fill(self) -> None:
        if self._filled:
            return
        cells = self._cells()
        for span in range(1, self.n + 1):
            for i in range(1, self.n - span + 2):
                j = i + span - 1
                for kind in self.kinds:
                    total = 0.0
                    for w, children, _arc in self.cases(kind, i, j):
                        prod = w
                        for ck, ci, cj in children:
                            prod *= cells[ck][ci][cj]
                            if prod == 0.0:
                                break
                        total += prod
                    cells[kind][i][j] = total
        for k, rows in cells.items():
            self.tables[k][...] = rows
        self._filled = True

    # -- outside ------------------------------------------------------------

    def outside(self, seeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Propagate outside weights down to every table.

        ``seeds[kind][i, j]`` is the outside weight of cell (kind, i, j)
        accumulated by external users (the 4D engine, or the top level for
        plain single-strand folding).  Returns per-kind outside arrays; the
        base-pair weight of arc (i,j) is ``out['qb'][i,j] * qb[i,j]`` (plus
        the helix tables in lone-pair-free mode).
        """
        size = self.n + 2
        out = {k: np.zeros((size, size)) for k in self.kinds}
        for k, arr in seeds.items():
            out[k] += arr
        cells = self._cells()
        acc = {k: arr.tolist() for k, arr in out.items()}
        for span in range(self.n, 0, -1):
            for i in range(1, self.n - span + 2):
                j = i + span - 1
                for kind in reversed(self.kinds):
                    o = acc[kind][i][j]
                    if o == 0.0:
                        continue
                    for w, children, _arc in self.cases(kind, i, j):
                        vals = [cells[ck][ci][cj] for ck, ci, cj in children]
                        for t, (ck, ci, cj) in enumerate(children):
                            if cj < ci:  # empty interval, no table cell
                                continue
                            contrib = o * w
                            for s, v in enumerate(vals):
                                if s != t:
                                    contrib *= v
                            acc[ck][ci][cj] += contrib
        for k, rows in acc.items():
            out[k][...] = rows
        return out

    def arc_probabilities(self, out: dict[str, np.ndarray], q_total: float) -> np.ndarray:
        """Base-pair probabilities implied by outside weights."""
        size = self.n + 2
        bpp = np.zeros((size, size))
        closed = ["qb", "qbh", "qend"] if self.nolp else ["qb"]
        for kind in closed:
            bpp += out[kind] * self.tables[kind]
        return bpp / q_total

    # -- sampling -----------------------------------------------------------

    def sample(
        self, kind: str, i: int, j: int, us: np.ndarray
    ) -> tuple[list[Case], np.ndarray, float]:
        """The cases of cell (kind, i, j), the index of the case that each
        uniform of ``us`` picks, and the cell's normalisation slack.

        The cases are built and scored once, however many uniforms there
        are; see :func:`pick_with_slack` for the rule and the check.

        Raises:
            NumericalUnderflow: the cases do not sum to the stored cell.
        """
        cases = self.cases(kind, i, j)
        weights = np.array(
            [w * math.prod(self.value(*c) for c in children) for w, children, _arc in cases]
        )
        return (cases, *pick_with_slack(weights, self.value(kind, i, j), us))


def pick_with_slack(
    weights: np.ndarray, total: float, us: np.ndarray
) -> tuple[np.ndarray, float]:
    """The index of the case that each uniform of ``us``, in [0, 1), picks,
    and the normalisation slack ``|sum(weights) - total| / total``.

    Case ``t`` is picked with probability ``weights[t] / total``: each
    uniform is scaled to the sum of the positive weights and located in
    their prefix sums with ``searchsorted(side="left")``, the first case
    whose prefix sum reaches it.

    Raises:
        NumericalUnderflow: the slack exceeds 1e-6 (or the sum is not
            finite), or no weight is positive.
    """
    acc = float(weights.sum())
    slack = abs(acc - total) / max(abs(total), 1e-300)
    if not math.isfinite(acc) or slack > 1e-6:
        raise NumericalUnderflow(f"cases sum to {acc!r}, table holds {float(total)!r}")
    positive = (weights > 0.0).nonzero()[0]
    if positive.size == 0:
        raise NumericalUnderflow("no positive case")
    prefix = weights[positive].cumsum()
    at = prefix.searchsorted(us * prefix[-1], side="left")
    return positive.take(at, mode="clip"), slack


def pick(weights: np.ndarray, total: float, us: np.ndarray) -> np.ndarray:
    """The case indices of :func:`pick_with_slack`, without the slack."""
    return pick_with_slack(weights, total, us)[0]


def fold(strand: Strand, model: EnergyModel) -> SecTables:
    """Fill all single-strand tables in O(L^3) time, O(L^2) space."""
    eng = SecEngine(strand, model)
    eng.fill()
    qb = eng.tables["qbh"] if eng.nolp else eng.tables["qb"]
    return SecTables(
        strand=strand,
        model=model,
        q=eng.tables["q"],
        qb=qb,
        qm=eng.tables["qm"],
        qk=eng.tables["qk"],
        engine=eng,
    )


def secondary_bpp(strand: Strand, model: EnergyModel) -> np.ndarray:
    """Standalone base-pair probabilities of one strand (McCaskill-style)."""
    tables = fold(strand, model)
    eng = tables.engine
    n = len(strand)
    seeds = {k: np.zeros((n + 2, n + 2)) for k in eng.kinds}
    seeds["q"][1, n] = 1.0
    out = eng.outside(seeds)
    return eng.arc_probabilities(out, tables.q_total())
