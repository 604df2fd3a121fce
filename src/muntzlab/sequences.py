"""Exponent sequences: construction, lacunarity classification, block search.

A :class:`LambdaSequence` is always a finite truncation of a conceptually
infinite sequence; every downstream report carries the truncation length so
asymptotic statements stay labelled as truncation trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, QuasilacunarityNotWitnessedError


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LambdaSequence:
    """Strictly increasing positive exponents with an origin tag."""

    values: np.ndarray
    origin: str = "explicit"

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
        return LambdaSequence(self.values[:n], origin=self.origin)

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

    def last_index_with_ratio_at_least(self, gamma: float) -> int:
        """Largest n with lambda_{n+1}/lambda_n >= gamma, 0 if none."""
        hits = np.nonzero(self.ratios >= gamma)[0]
        return int(hits[-1] + 1) if hits.size else 0


@dataclass(frozen=True)
class BlockStructure:
    """Greedy quasilacunarity witness: block starts and the block bound."""

    starts: tuple[int, ...]          # 1-based indices of block starts
    gamma: float
    block_bound: int                 # N = sup of block lengths on the truncation
    n_seq: int

    @property
    def lengths(self) -> tuple[int, ...]:
        bounds = list(self.starts) + [self.n_seq + 1]
        return tuple(bounds[i + 1] - bounds[i] for i in range(len(self.starts)))


def make_geometric(lambda1: float, ratio: float, count: int) -> LambdaSequence:
    """lambda_n = lambda1 * ratio**(n-1)."""
    if ratio <= 1.0:
        raise InvalidParameterError("ratio must exceed 1")
    if lambda1 <= 0.0:
        raise InvalidParameterError("lambda1 must be positive")
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    values = lambda1 * ratio ** np.arange(count, dtype=float)
    return LambdaSequence(values, origin="geometric")


def make_power(exponent: float, count: int) -> LambdaSequence:
    """lambda_n = n**exponent; exponent > 1 keeps sum(1/lambda_n) convergent."""
    if exponent <= 1.0:
        raise InvalidParameterError(
            "exponent must exceed 1 (otherwise sum 1/lambda_n diverges)")
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    values = np.arange(1, count + 1, dtype=float) ** exponent
    return LambdaSequence(values, origin="power")


def make_explicit(values) -> LambdaSequence:
    return LambdaSequence(values, origin="explicit")


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


def sequence_from_config(spec: dict) -> LambdaSequence:
    """Build a sequence from its config-file form.

    Accepted: ``{"kind": "geometric", "lambda1": .., "ratio": .., "count": ..}``,
    ``{"kind": "power", "exponent": .., "count": ..}``,
    ``{"kind": "explicit", "values": [..]}``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameterError("sequence spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "geometric":
            return make_geometric(spec["lambda1"], spec["ratio"], int(spec["count"]))
        if kind == "power":
            return make_power(spec["exponent"], int(spec["count"]))
        if kind == "explicit":
            return make_explicit(spec["values"])
    except InvalidParameterError:
        raise
    except KeyError as exc:
        raise InvalidParameterError(
            f"sequence spec missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"malformed {kind} sequence spec: {exc}") from exc
    raise InvalidParameterError(f"unknown sequence kind {kind!r}")
