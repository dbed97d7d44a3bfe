"""Sequences, arcs, joint structures and structural validity checks.

Index conventions (used by every module):

* R positions run 1..N in 5'->3' order.
* S positions run 1..M where position 1 is the **3' end** of S.  The
  reversal happens once at ingestion; reports translate back.
* Exterior arcs (i,h) are non-crossing in the monotone sense:
  i1 < i2 implies h1 < h2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "ALPHABET",
    "BASE_CODE",
    "Strand",
    "JointStructure",
    "Hybrid",
    "Violation",
    "ValidityReport",
    "validate",
    "is_zigzag_free",
    "extract_hybrids",
]

ALPHABET = "ACGU"
BASE_CODE = {b: k for k, b in enumerate(ALPHABET)}


@dataclass(frozen=True)
class Strand:
    """An RNA strand in the internal index order.

    ``residues`` run 5'->3' for the query (R) and 3'->5' for the target
    (S), so that internal position 1 of S is its 3' end.

    Attributes:
        id: Text label (FASTA record id).
        residues: Sequence over {A,C,G,U} in internal order.
    """

    id: str
    residues: str

    def __post_init__(self) -> None:
        seq = self.residues.upper().replace("T", "U")
        if len(seq) < 1:
            raise ValueError(f"strand {self.id!r}: empty sequence")
        for pos, base in enumerate(seq, start=1):
            if base not in BASE_CODE:
                raise ValueError(
                    f"strand {self.id!r}: invalid residue {base!r} at position {pos}"
                )
        object.__setattr__(self, "residues", seq)

    def __len__(self) -> int:
        return len(self.residues)

    def base(self, pos: int) -> str:
        """Residue at 1-based internal position."""
        return self.residues[pos - 1]

    def codes(self) -> list[int]:
        """Residues as integer codes (A=0, C=1, G=2, U=3)."""
        return [BASE_CODE[b] for b in self.residues]

    @classmethod
    def query(cls, seq: str, id: str = "R") -> "Strand":
        return cls(id=id, residues=seq)

    @classmethod
    def target_from_5to3(cls, seq: str, id: str = "S") -> "Strand":
        """Build the target strand from its 5'->3' sequence (reverses it)."""
        return cls(id=id, residues=seq[::-1])

    @classmethod
    def target_internal(cls, seq: str, id: str = "S") -> "Strand":
        """Build the target strand from an already reversed sequence."""
        return cls(id=id, residues=seq)


@dataclass(frozen=True)
class JointStructure:
    """Interior arcs of both strands plus non-crossing exterior arcs.

    Attributes:
        n: Length of R.
        m: Length of S.
        interior_r: Frozen set of (i,j) with 1 <= i < j <= n.
        interior_s: Frozen set of (h,l) with 1 <= h < l <= m.
        exterior: Tuple of (i,h) pairs sorted by i.
    """

    n: int
    m: int
    interior_r: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    interior_s: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    exterior: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "interior_r", frozenset(self.interior_r))
        object.__setattr__(self, "interior_s", frozenset(self.interior_s))
        object.__setattr__(self, "exterior", tuple(sorted(self.exterior)))

    @property
    def arc_count(self) -> int:
        return len(self.interior_r) + len(self.interior_s) + len(self.exterior)

    def key(self) -> tuple:
        """Canonical hashable identity of the arc configuration."""
        return (
            tuple(sorted(self.interior_r)),
            tuple(sorted(self.interior_s)),
            self.exterior,
        )


@dataclass(frozen=True)
class Hybrid:
    """A maximal run of exterior arcs separated only by unpaired bases.

    Attributes:
        arcs: The exterior arcs, ordered.
        footprint_r: (first arc R-position, last arc R-position).
        footprint_s: (first arc S-position, last arc S-position).
    """

    arcs: tuple[tuple[int, int], ...]
    footprint_r: tuple[int, int]
    footprint_s: tuple[int, int]

    @classmethod
    def from_arcs(cls, arcs: tuple[tuple[int, int], ...]) -> "Hybrid":
        if not arcs:
            raise ValueError("a hybrid needs at least one arc")
        return cls(
            arcs=arcs,
            footprint_r=(arcs[0][0], arcs[-1][0]),
            footprint_s=(arcs[0][1], arcs[-1][1]),
        )


class Violation(Enum):
    CROSSING_ARCS = "CrossingArcs"
    DOUBLE_PAIRED_POSITION = "DoublePairedPosition"
    ZIG_ZAG = "ZigZag"
    HAIRPIN_TOO_SMALL = "HairpinTooSmall"


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of :func:`validate`: Valid, or the first violated rule."""

    valid: bool
    rule: Violation | None = None
    arcs: tuple = ()

    def __bool__(self) -> bool:
        return self.valid


VALID = ValidityReport(valid=True)


def _double_paired(js: JointStructure) -> tuple | None:
    seen_r: dict[int, tuple] = {}
    seen_s: dict[int, tuple] = {}
    for arc in sorted(js.interior_r):
        for p in arc:
            if p in seen_r:
                return (seen_r[p], arc)
            seen_r[p] = arc
    for arc in sorted(js.interior_s):
        for p in arc:
            if p in seen_s:
                return (seen_s[p], arc)
            seen_s[p] = arc
    for arc in js.exterior:
        i, h = arc
        if i in seen_r:
            return (seen_r[i], arc)
        if h in seen_s:
            return (seen_s[h], arc)
        seen_r[i] = arc
        seen_s[h] = arc
    return None


def _crossing_interior(arcs: frozenset[tuple[int, int]]) -> tuple | None:
    ordered = sorted(arcs)
    for a in range(len(ordered)):
        i1, j1 = ordered[a]
        for b in range(a + 1, len(ordered)):
            i2, j2 = ordered[b]
            if i1 < i2 < j1 < j2:
                return (ordered[a], ordered[b])
    return None


def _crossing_exterior(exterior: tuple[tuple[int, int], ...]) -> tuple | None:
    # Sorted by R position; monotone requires S positions strictly increasing.
    for a in range(len(exterior) - 1):
        (i1, h1), (i2, h2) = exterior[a], exterior[a + 1]
        if h2 <= h1 or i2 <= i1:
            return (exterior[a], exterior[a + 1])
    return None


def _covered_runs(
    interior: frozenset[tuple[int, int]],
    endpoints: list[int],
) -> dict[tuple[int, int], tuple[int, int]]:
    """Map each interior arc to the (lo,hi) index range of exterior arcs it
    covers, as indices into the sorted exterior list; arcs covering nothing
    are omitted."""
    runs = {}
    for (a, b) in interior:
        lo = None
        hi = None
        for k, p in enumerate(endpoints):
            if a < p < b:
                if lo is None:
                    lo = k
                hi = k
        if lo is not None:
            runs[(a, b)] = (lo, hi)
    return runs


def is_zigzag_free(js: JointStructure) -> bool:
    """Check the forbidden alternating-coverage pattern.

    A zig-zag exists iff some R interior arc and some S interior arc cover
    overlapping but non-nested runs of exterior arcs: equivalently there are
    exterior arcs e1 < e2 < e3 where one arc covers e1,e2 but not e3 and the
    other covers e2,e3 but not e1 (in either strand orientation).
    """
    return not _find_zigzag_witness(js)


def _find_zigzag_witness(js: JointStructure) -> tuple:
    """The first (R arc, S arc) pair that forms a zig-zag, or ``()``."""
    r_ends = [i for i, _ in js.exterior]
    s_ends = [h for _, h in js.exterior]
    runs_r = _covered_runs(js.interior_r, r_ends)
    runs_s = _covered_runs(js.interior_s, s_ends)
    for arc_a, (lo_a, hi_a) in runs_r.items():
        for arc_b, (lo_b, hi_b) in runs_s.items():
            if lo_a > hi_b or lo_b > hi_a:
                continue  # disjoint
            if lo_a <= lo_b and hi_a >= hi_b:
                continue  # A subsumes B
            if lo_b <= lo_a and hi_b >= hi_a:
                continue  # B subsumes A
            return (arc_a, arc_b)
    return ()


def validate(js: JointStructure, min_hairpin: int = 3) -> ValidityReport:
    """Check all structural rules; report the first violation.

    Rule order: DoublePairedPosition, CrossingArcs, HairpinTooSmall, ZigZag.
    ``min_hairpin`` is the minimum number of unpaired bases enclosed by an
    interior arc and must match the energy model's value.

    Pure function: same input, same report.
    """
    for (i, j) in sorted(js.interior_r) + sorted(js.interior_s):
        if i >= j:
            return ValidityReport(False, Violation.CROSSING_ARCS, ((i, j),))
    dup = _double_paired(js)
    if dup is not None:
        return ValidityReport(False, Violation.DOUBLE_PAIRED_POSITION, dup)
    for arcs in (js.interior_r, js.interior_s):
        crossing = _crossing_interior(arcs)
        if crossing is not None:
            return ValidityReport(False, Violation.CROSSING_ARCS, crossing)
    crossing = _crossing_exterior(js.exterior)
    if crossing is not None:
        return ValidityReport(False, Violation.CROSSING_ARCS, crossing)
    for arcs in (js.interior_r, js.interior_s):
        for (i, j) in sorted(arcs):
            if j - i - 1 < min_hairpin:
                return ValidityReport(False, Violation.HAIRPIN_TOO_SMALL, ((i, j),))
    witness = _find_zigzag_witness(js)
    if witness:
        return ValidityReport(False, Violation.ZIG_ZAG, witness)
    return VALID


def extract_hybrids(js: JointStructure) -> list[Hybrid]:
    """Partition the exterior arcs into maximal hybrids.

    Two consecutive exterior arcs belong to the same hybrid iff every
    position strictly between them is unpaired on both strands.  The
    returned hybrids are ordered and concatenate back to ``js.exterior``.
    """
    if not js.exterior:
        return []
    paired_r = set()
    paired_s = set()
    for (i, j) in js.interior_r:
        paired_r.update((i, j))
    for (h, l) in js.interior_s:
        paired_s.update((h, l))
    for (i, h) in js.exterior:
        paired_r.add(i)
        paired_s.add(h)

    hybrids: list[Hybrid] = []
    run: list[tuple[int, int]] = [js.exterior[0]]
    for arc in js.exterior[1:]:
        (i1, h1), (i2, h2) = run[-1], arc
        gap_r_clear = all(p not in paired_r for p in range(i1 + 1, i2))
        gap_s_clear = all(p not in paired_s for p in range(h1 + 1, h2))
        if gap_r_clear and gap_s_clear:
            run.append(arc)
        else:
            hybrids.append(Hybrid.from_arcs(tuple(run)))
            run = [arc]
    hybrids.append(Hybrid.from_arcs(tuple(run)))
    return hybrids
