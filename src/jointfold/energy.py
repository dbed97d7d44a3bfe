"""Boltzmann-weight provider for every structural feature.

One pricing semantics is defined here and shared verbatim by the dynamic
programming engine (which factors it over parse trees) and the brute-force
oracle (which scores whole structures geometrically).  All energies are in
kcal/mol; a weight is exp(-E/rt).

Free-energy parameters default to qualitative placeholder values and are
fully overridable through a line-oriented ``key = value`` file
(:func:`load_params`).  ``unit_model`` sets every energy to zero, turning
every partition function into an ensemble count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from .seq_model import ALPHABET, BASE_CODE

__all__ = [
    "EnergyModel",
    "ParamError",
    "HybridContext",
    "default_model",
    "unit_model",
    "load_params",
    "parse_params",
    "weight_hybrid_step",
    "DEFAULT_PAIRS",
    "PARAM_DOC",
]

DEFAULT_PAIRS = ("AU", "UA", "GC", "CG", "GU", "UG")

HybridContext = str  # one of "EE", "EK", "KE", "KK"


class ParamError(ValueError):
    """Raised for malformed or unknown parameter-file entries."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidGap(ValueError):
    """Raised when a hybrid step does not advance on both strands."""


@dataclass(frozen=True)
class EnergyModel:
    """Immutable energy parameters plus derived Boltzmann weights.

    Loop classes priced here:

    * hairpin / interior / stack / multi: standard secondary-structure
      loops (no exterior-arc endpoint inside the closing arc's span);
    * kissing: loops whose closing arc spans at least one exterior-arc
      endpoint (affine: init/branch/unpaired);
    * hybrid steps: ``sigma0 + sigma*G_int(gap_r,gap_s)`` per extension,
      plus ``beta3`` per gap base on each strand whose side of the hybrid
      lies inside a kissing loop.

    Attributes mirror the parameter file keys (see ``PARAM_DOC``).
    """

    rt: float = 0.6163
    min_hairpin: int = 3
    forbid_lone_pairs: bool = False
    pairs: tuple[str, ...] = DEFAULT_PAIRS

    hairpin_init: float = 3.0
    hairpin_slope: float = 0.3
    interior_init: float = 1.0
    interior_slope: float = 0.3
    stack_default: float = -2.0
    stack_overrides: Mapping[tuple[str, str], float] = field(default_factory=dict)

    multi_init: float = 3.4
    multi_branch: float = 0.4
    multi_unpaired: float = 0.0
    kiss_init: float = 4.1
    kiss_branch: float = 0.4
    kiss_unpaired: float = 0.1

    sigma0: float = 4.1
    sigma: float = 1.0
    beta3: float = 0.3
    g_int_init: float = 0.5
    g_int_slope: float = 0.3

    ext_default: float = -1.2
    ext_overrides: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stack_overrides", dict(self.stack_overrides))
        object.__setattr__(self, "ext_overrides", dict(self.ext_overrides))
        for pt in self.pairs:
            if len(pt) != 2 or any(b not in BASE_CODE for b in pt):
                raise ParamError(f"invalid pair type {pt!r}")
        if self.min_hairpin < 0:
            raise ParamError(f"min_hairpin must be >= 0, got {self.min_hairpin}")
        if not (math.isfinite(self.rt) and self.rt > 0.0):
            raise ParamError(f"rt must be finite and > 0, got {self.rt!r}")

    # -- energies ---------------------------------------------------------

    def hairpin(self, size: int) -> float:
        return self.hairpin_init + self.hairpin_slope * size

    def interior(self, size1: int, size2: int) -> float:
        return self.interior_init + self.interior_slope * (size1 + size2)

    def stack(self, outer: str, inner: str) -> float:
        return self.stack_overrides.get((outer, inner), self.stack_default)

    def g_int(self, i1: int, h1: int, j: int, l: int) -> float:
        """Two-sided gap energy of a hybrid extension step (size-based)."""
        return self.g_int_sizes(j - i1 - 1, l - h1 - 1)

    def g_int_sizes(self, gap_r: int, gap_s: int) -> float:
        return self.g_int_init + self.g_int_slope * (gap_r + gap_s)

    # -- weights ----------------------------------------------------------

    def weight(self, energy: float) -> float:
        return math.exp(-energy / self.rt)

    def pairable(self, a: str, b: str) -> bool:
        return a + b in self.pairs

    def w_hairpin(self, size: int) -> float:
        return self.weight(self.hairpin(size))

    def w_interior(self, size1: int, size2: int) -> float:
        return self.weight(self.interior(size1, size2))

    def w_stack(self, outer: str, inner: str) -> float:
        return self.weight(self.stack(outer, inner))

    def w_ext(self, a: str, b: str) -> float:
        if not self.pairable(a, b):
            return 0.0
        return self.weight(self.ext_overrides.get((a, b), self.ext_default))

    @property
    def w_multi_init(self) -> float:
        return self.weight(self.multi_init)

    @property
    def w_multi_branch(self) -> float:
        return self.weight(self.multi_branch)

    @property
    def w_multi_unpaired(self) -> float:
        return self.weight(self.multi_unpaired)

    @property
    def w_kiss_init(self) -> float:
        return self.weight(self.kiss_init)

    @property
    def w_kiss_branch(self) -> float:
        return self.weight(self.kiss_branch)

    @property
    def w_kiss_unpaired(self) -> float:
        return self.weight(self.kiss_unpaired)

    @property
    def w_beta3(self) -> float:
        return self.weight(self.beta3)

    def w_step_base(self, gap_r: int, gap_s: int) -> float:
        """Hybrid extension weight before beta3 terms."""
        return self.weight(self.sigma0 + self.sigma * self.g_int_sizes(gap_r, gap_s))

    # -- convenience ------------------------------------------------------

    def without_interaction(self) -> "EnergyModel":
        """Copy of the model with every exterior-arc weight set to zero."""
        return replace(self, ext_default=math.inf, ext_overrides={})

    def canonical_params(self) -> list[tuple[str, str]]:
        rt, *floats = ((key, repr(getattr(self, name))) for key, name in _SCALAR_FLOAT_KEYS.items())
        out = [
            rt,
            ("min_hairpin", str(self.min_hairpin)),
            ("forbid_lone_pairs", str(self.forbid_lone_pairs).lower()),
            ("pairs", ",".join(self.pairs)),
            *floats,
        ]
        for (a, b), v in sorted(self.stack_overrides.items()):
            out.append((f"stack_{a}{b}", repr(v)))
        for (a, b), v in sorted(self.ext_overrides.items()):
            out.append((f"ext_{a}{b}", repr(v)))
        return out

    def fingerprint(self) -> str:
        """Stable 12-hex-digit digest identifying the parameter set."""
        text = "\n".join(f"{k}={v}" for k, v in self.canonical_params())
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def default_model(**overrides) -> EnergyModel:
    """Model with the documented qualitative default parameters."""
    return EnergyModel(**overrides)


def unit_model(min_hairpin: int = 3, **overrides) -> EnergyModel:
    """Every energy zero, every weight one: partition functions count.

    Pair admissibility and the hairpin size constraint stay structural, so
    the ensemble itself is unchanged.
    """
    zeros = {name: 0.0 for name in _SCALAR_FLOAT_KEYS.values() if name != "rt"}
    return EnergyModel(**{"min_hairpin": min_hairpin, **zeros, **overrides})


def weight_hybrid_step(
    model: EnergyModel,
    i1: int,
    h1: int,
    j: int,
    l: int,
    context: HybridContext,
) -> float:
    """Weight of extending a hybrid from arc (i1,h1) to its next arc (j,l).

    The exponent is sigma0 + sigma*G_int plus beta3 times the number of gap
    bases lying on a kissing-loop side: the R gap (j-i1-1 bases) when the
    first context letter is K, the S gap (l-h1-1 bases) when the second is.

    Raises:
        InvalidGap: if j <= i1 or l <= h1.
        ValueError: on an unknown context string.
    """
    if context not in ("EE", "EK", "KE", "KK"):
        raise ValueError(f"unknown hybrid context {context!r}")
    if j <= i1 or l <= h1:
        raise InvalidGap(f"step ({i1},{h1})->({j},{l}) must advance on both strands")
    gap_r = j - i1 - 1
    gap_s = l - h1 - 1
    w = model.weight(model.sigma0 + model.sigma * model.g_int(i1, h1, j, l))
    if context[0] == "K":
        w *= model.w_beta3 ** gap_r
    if context[1] == "K":
        w *= model.w_beta3 ** gap_s
    return w


# the float keys of a parameter file and the fields they set, in field order,
# which is the order of ``EnergyModel.canonical_params`` (it puts the integer,
# boolean and pair-type keys after ``rt``); a key is its field's name, except
# ``stack`` and ``ext_arc``, the defaults that per-pair overrides refine
_SCALAR_FLOAT_KEYS = {
    {"stack_default": "stack", "ext_default": "ext_arc"}.get(f.name, f.name): f.name
    for f in fields(EnergyModel) if f.type == "float"
}

PARAM_DOC = """\
# jointfold energy parameter file: one `key = value` per line, `#` comments.
# Energies in kcal/mol; `inf` is allowed (weight 0).  Defaults in brackets.
#   rt              thermal energy [0.6163]
#   min_hairpin     minimum unpaired bases under an interior arc [3]
#   forbid_lone_pairs   true/false: require secondary helices of length >= 2 [false]
#   pairs           admissible pair types [AU,UA,GC,CG,GU,UG]
#   hairpin_init / hairpin_slope     affine hairpin energy [3.0 / 0.3]
#   interior_init / interior_slope   affine interior-loop energy [1.0 / 0.3]
#   stack           stack energy; per-pair overrides stack_XY_ZW [-2.0]
#   multi_init / multi_branch / multi_unpaired   multiloop affine [3.4/0.4/0.0]
#   kiss_init / kiss_branch / kiss_unpaired      kissing-loop affine [4.1/0.4/0.1]
#   sigma0 / sigma / beta3           hybrid extension parameters [4.1/1.0/0.3]
#   g_int_init / g_int_slope         affine two-sided hybrid gap energy [0.5/0.3]
#   ext_arc         exterior-arc energy; per-pair overrides ext_XY [-1.2]
"""


def _parse_float(value: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParamError(f"expected a number, got {value!r}", line) from None


def parse_params(text: str) -> EnergyModel:
    """Parse parameter-file text into a model (unknown keys are errors)."""
    model = default_model()
    given: dict = {}
    stack_overrides = dict(model.stack_overrides)
    ext_overrides = dict(model.ext_overrides)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"expected `key = value`, got {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _SCALAR_FLOAT_KEYS:
            given[_SCALAR_FLOAT_KEYS[key]] = _parse_float(value, lineno)
        elif key == "min_hairpin":
            try:
                given["min_hairpin"] = int(value)
            except ValueError:
                raise ParamError(f"expected an integer, got {value!r}", lineno) from None
        elif key == "forbid_lone_pairs":
            if value.lower() not in ("true", "false"):
                raise ParamError(f"expected true/false, got {value!r}", lineno)
            given["forbid_lone_pairs"] = value.lower() == "true"
        elif key == "pairs":
            pts = tuple(p.strip().upper() for p in value.split(",") if p.strip())
            for pt in pts:
                if len(pt) != 2 or any(b not in ALPHABET for b in pt):
                    raise ParamError(f"invalid pair type {pt!r}", lineno)
            given["pairs"] = pts
        elif key.startswith("stack_") and len(key) == len("stack_") + 5:
            outer, inner = key[6:8], key[9:11]
            if key[8] != "_" or any(b not in ALPHABET for b in outer + inner):
                raise ParamError(f"unknown key {key!r}", lineno)
            stack_overrides[(outer, inner)] = _parse_float(value, lineno)
        elif key.startswith("ext_") and len(key) == 6:
            pt = key[4:6]
            if any(b not in ALPHABET for b in pt):
                raise ParamError(f"unknown key {key!r}", lineno)
            ext_overrides[(pt[0], pt[1])] = _parse_float(value, lineno)
        else:
            raise ParamError(f"unknown key {key!r}", lineno)
    given["stack_overrides"] = stack_overrides
    given["ext_overrides"] = ext_overrides
    return replace(model, **given)


def load_params(path: str) -> EnergyModel:
    """Load a parameter file; unspecified keys keep their defaults.

    Raises:
        FileNotFoundError: missing file.
        ParamError: malformed line or unknown key (with line number).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_params(text)
