"""Exponent sequences: construction, lacunarity classification, block search.

A :class:`LambdaSequence` is always a finite truncation of a conceptually
infinite sequence; every downstream report carries the truncation length so
asymptotic statements stay labelled as truncation trends.  It keeps what
depends on its exponents alone, computed by :mod:`muntzlab.geometry` and
:mod:`muntzlab.polynomials`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, QuasilacunarityNotWitnessedError


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_array(values) -> np.ndarray:
    return _read_only(np.array(values, dtype=float))


@dataclass(frozen=True)
class LambdaSequence:
    """Strictly increasing positive exponents.  B (``lebesgue_gram``), the
    inverse W = L^-1 of its lower Cholesky factor (``whitener``),
    ``cond_b``, ``psi`` and the read-only sup-grid tables of the powers
    ``x**lambda_k`` (``sup_powers``) and ``x**(lambda_k - 1)``
    (``sup_derivative_powers``) are computed once, when first read."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidParameterError("sequence must hold at least one exponent")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("exponents must be finite")
        if arr[0] <= 0.0:
            raise InvalidParameterError("exponents must be positive")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise InvalidParameterError("exponents must be strictly increasing")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def __getitem__(self, n: int) -> float:
        return float(self.values[n])

    def truncate(self, n: int) -> "LambdaSequence":
        if not 1 <= n <= len(self):
            raise InvalidParameterError(f"truncation {n} outside 1..{len(self)}")
        if n == len(self):
            return self
        return LambdaSequence(self.values[:n])

    @cached_property
    def lebesgue_gram(self) -> np.ndarray:
        from . import geometry
        return geometry.lebesgue_gram(self)

    @cached_property
    def whitener(self) -> np.ndarray:
        from . import geometry
        return geometry.whitener(self)

    @cached_property
    def cond_b(self) -> float:
        """(sigma_max(W) / sigma_min(W))**2, inf when W overflows."""
        if not np.all(np.isfinite(self.whitener)):
            return math.inf
        s = np.linalg.svd(self.whitener, compute_uv=False)
        ratio = float(s[0]) / float(s[-1]) if s[-1] > 0.0 else math.inf
        return ratio * ratio

    @cached_property
    def psi(self):
        from . import geometry
        return geometry.PsiEvaluator.from_sequence(self)

    @cached_property
    def sup_powers(self) -> np.ndarray:
        from . import polynomials as poly
        return _read_only(poly.powers(self.values, poly.log_points(poly.SUP_GRID)))

    @cached_property
    def sup_derivative_powers(self) -> np.ndarray:
        from . import polynomials as poly
        grid = poly.derivative_grid(self.values[0])
        return _read_only(poly.powers(self.values - 1.0, poly.log_points(grid)))

    def to_config(self) -> dict:
        return {"kind": "explicit", "values": [float(v) for v in self.values]}


@dataclass(frozen=True)
class LacunarityReport:
    """Consecutive-ratio statistics of a truncated sequence."""

    min_ratio: float
    max_ratio: float
    ratios: np.ndarray
    muntz_sum: float
    n_seq: int
    degenerate: bool = False

    def is_lacunary(self, gamma: float) -> bool:
        if gamma <= 1.0:
            raise InvalidParameterError("gamma must exceed 1")
        return not self.degenerate and self.min_ratio >= gamma


@dataclass(frozen=True)
class BlockStructure:
    """Greedy quasilacunarity witness: block starts and the block bound."""

    starts: tuple[int, ...]          # 1-based indices of block starts
    gamma: float
    block_bound: int                 # N = sup of block lengths on the truncation
    n_seq: int


def whole_number(value) -> int:
    """``value`` as an int, or a ValueError when it is not a whole number (a
    fraction, a non-finite float, a string, a bool): never truncated, so a
    config runs as written."""
    try:
        whole = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{value!r} is not a whole number")
    return whole


def real_number(value) -> float:
    """``value`` as a float, or a TypeError when it is not a JSON number: a
    bool, null or string is refused, except the "inf", "-inf" and "nan" that
    reports write for non-finite numbers, so that an echoed config re-runs."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            or isinstance(value, str) and value in ("inf", "-inf", "nan")):
        return float(value)
    raise TypeError(f"{value!r} is not a number")


def config_object(spec, what: str, fields) -> dict:
    """``spec`` when it is an object with no field outside ``fields``, else
    an InvalidParameterError that names ``what`` and the field."""
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"{what} must be a JSON object")
    for name in spec:
        if name not in fields:
            raise InvalidParameterError(f"{what} has unknown field {name!r}")
    return spec


def from_config(spec, what: str, kinds: dict):
    """The object a config spec ``{"kind": .., ...}`` describes, where
    ``kinds`` maps each kind to its fields and its builder from the spec.
    A field outside them is refused, and a missing or malformed one is an
    InvalidParameterError."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameterError(
            f"{what} spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidParameterError(f"unknown {what} kind {kind!r}")
    fields, build = kinds[kind]
    config_object(spec, f"{kind} {what} spec", ("kind", *fields))
    try:
        return build(spec)
    except InvalidParameterError:
        raise
    except KeyError as exc:
        raise InvalidParameterError(
            f"{what} spec missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"malformed {kind} {what} spec: {exc}") from exc


def make_geometric(lambda1: float, ratio: float, count: int) -> LambdaSequence:
    """lambda_n = lambda1 * ratio**(n-1)."""
    if ratio <= 1.0:
        raise InvalidParameterError("ratio must exceed 1")
    if lambda1 <= 0.0:
        raise InvalidParameterError("lambda1 must be positive")
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    values = lambda1 * ratio ** np.arange(count, dtype=float)
    return LambdaSequence(values)


def make_power(exponent: float, count: int) -> LambdaSequence:
    """lambda_n = n**exponent; exponent > 1 keeps sum(1/lambda_n) convergent."""
    if exponent <= 1.0:
        raise InvalidParameterError(
            "exponent must exceed 1 (otherwise sum 1/lambda_n diverges)")
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    values = np.arange(1, count + 1, dtype=float) ** exponent
    return LambdaSequence(values)


def make_explicit(values) -> LambdaSequence:
    return LambdaSequence(values)


def classify(seq: LambdaSequence) -> LacunarityReport:
    """Ratio statistics and the truncated Muntz sum.

    A single-element sequence is reported with the ``min_ratio = +inf``
    convention and flagged degenerate.
    """
    values = seq.values
    muntz_sum = math.fsum(1.0 / v for v in values)
    if len(seq) < 2:
        return LacunarityReport(
            min_ratio=math.inf, max_ratio=math.inf,
            ratios=_frozen_array([]), muntz_sum=muntz_sum,
            n_seq=len(seq), degenerate=True)
    ratios = values[1:] / values[:-1]
    return LacunarityReport(
        min_ratio=float(ratios.min()), max_ratio=float(ratios.max()),
        ratios=_frozen_array(ratios), muntz_sum=muntz_sum, n_seq=len(seq))


def find_blocks(seq: LambdaSequence, gamma: float) -> BlockStructure:
    """Greedy block decomposition witnessing quasilacunarity.

    Block starts are chosen leftmost: the next start is the smallest index
    whose exponent ratio to the current start is at least ``gamma``.  The
    search must land exactly on the final index; otherwise the trailing
    indices cannot witness the ratio at this truncation and an error is
    raised.
    """
    if gamma <= 1.0:
        raise InvalidParameterError("gamma must exceed 1")
    values = seq.values
    n = len(seq)
    starts = [1]
    while starts[-1] < n:
        cur = starts[-1]
        nxt = None
        for j in range(cur + 1, n + 1):
            if values[j - 1] / values[cur - 1] >= gamma:
                nxt = j
                break
        if nxt is None:
            raise QuasilacunarityNotWitnessedError(
                f"no index after {cur} reaches ratio {gamma} "
                f"(truncation N={n})")
        starts.append(nxt)
    bounds = starts + [n + 1]
    block_bound = max(bounds[i + 1] - bounds[i] for i in range(len(starts)))
    return BlockStructure(starts=tuple(starts), gamma=gamma,
                          block_bound=block_bound, n_seq=n)


_SEQUENCE_KINDS = {
    "geometric": (("lambda1", "ratio", "count"), lambda spec: make_geometric(
        real_number(spec["lambda1"]), real_number(spec["ratio"]),
        whole_number(spec["count"]))),
    "power": (("exponent", "count"), lambda spec: make_power(
        real_number(spec["exponent"]), whole_number(spec["count"]))),
    "explicit": (("values",), lambda spec: make_explicit(
        [real_number(v) for v in spec["values"]])),
}


def sequence_from_config(spec: dict) -> LambdaSequence:
    """Build a sequence from its config-file form.

    Accepted: ``{"kind": "geometric", "lambda1": .., "ratio": .., "count": ..}``,
    ``{"kind": "power", "exponent": .., "count": ..}``,
    ``{"kind": "explicit", "values": [..]}``, and no other field; every
    number must be a JSON number, and a count a whole one.
    """
    return from_config(spec, "sequence", _SEQUENCE_KINDS)
