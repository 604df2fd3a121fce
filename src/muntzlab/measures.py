"""Finite positive Borel measures on [0,1] with log-domain moment queries.

Variants: atomic measures (positions and weights both kept as logarithms,
so atoms like ``1 - 1e-35`` remain meaningful), power tails with density
``C*alpha*(1-x)**(alpha-1)``, piecewise-constant densities, scalings and
finite sums.  Atoms at exactly 1 are rejected at construction: embedding
measures must satisfy ``mu({1}) = 0``.

Moments ``integral x**s dmu`` are exact closed forms in the log domain for
every variant (incomplete-Beta form for truncated power tails), safe for
``s`` up to ~1e12, and array-valued (:meth:`Measure.log_moments`; the
scalar queries wrap it), and so are the tail masses ``mu(J_eps)``
(:meth:`Measure.tail_mass`).  Generic integrals against user functions run
on one fixed :class:`~muntzlab.quadrature.QuadraturePlan` built from the
flattened measure's density pieces, in the tail variable ``t = 1 - x``.

A tail majorant rho of the paper (``mu(J_eps) <= rho(eps)``) is itself a
measure: ``nu = rho'(1-x) dx`` has ``nu(J_eps) = rho(eps)``, and the power
majorant ``rho(eps) = C*eps**alpha`` is ``PowerTailMeasure(C, alpha)``.
:func:`rho_hypothesis_violation` and :func:`rho_majorization_check` take
that measure.

Restrictions produced by :func:`restrict_tail` may carry zero mass (the
embedding of an empty measure is the zero operator); explicit constructors
still require positive mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincc, betaln

from . import quadrature
from .errors import HypothesisViolationError, InvalidParameterError
from .logdomain import NEG_INF, log_power_interval, log_sum

_GRID_LEVELS = 40


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------

class Measure:
    """Common interface of all measure variants.  Values are immutable and
    all operations are pure, so instances are safe to share across threads."""

    # -- mass / moments ---------------------------------------------------

    def log_moments(self, s) -> np.ndarray:
        """log of ``integral x**s dmu`` elementwise over an array of orders;
        -inf encodes a zero moment."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise InvalidParameterError("moment order s must be >= 0")
        return self._log_moments(s)

    def log_moment(self, s: float) -> float:
        return float(self.log_moments(s))

    def moment(self, s: float) -> float:
        """integral x**s dmu (may underflow to 0)."""
        return math.exp(self.log_moment(s))

    @property
    def log_total_mass(self) -> float:
        return self.log_moment(0.0)

    @property
    def total_mass(self) -> float:
        return self.moment(0.0)

    def tail_mass(self, eps):
        """mu([1-eps, 1]) elementwise over an array of eps in (0, 1]; a float
        eps gives a float."""
        eps_arr = np.asarray(eps, dtype=float)
        if not np.all((eps_arr > 0.0) & (eps_arr <= 1.0)):
            raise InvalidParameterError("eps must lie in (0, 1]")
        masses = self._tail_masses(eps_arr)
        return float(masses) if eps_arr.ndim == 0 else masses

    def mass_above(self, b: float) -> float:
        """mu((b, 1]); zero exactly when the support lies in [0, b]."""
        return self._mass_above(b)

    # -- structure ---------------------------------------------------------

    def restricted_to_tail(self, eps: float) -> "Measure":
        """Restriction to [1-eps, 1], keeping the variant structure."""
        if not 0.0 < eps <= 1.0:
            raise InvalidParameterError("eps must lie in (0, 1]")
        return self._restricted(eps)

    def bounded_density_sup(self) -> float | None:
        """Essential sup of the density when mu = h dm with bounded h, else None."""
        return None

    def sublinear_norm_exact(self) -> float | None:
        """Analytic sup of mu(J_eps)/eps when available, else None."""
        return None

    def flattened(self) -> "FlatMeasure":
        """Atoms plus density pieces in the tail variable, scales applied."""
        flat = FlatMeasure()
        self._flatten_into(flat, 0.0)
        flat.freeze()
        return flat

    def to_config(self) -> dict:
        raise NotImplementedError

    # hooks implemented per variant
    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _mass_above(self, b: float) -> float:
        # mu((b, 1]) = mu(J_{1-b}) for a measure without atoms
        return float(self._tail_masses(np.asarray(1.0 - b))) if b < 1.0 else 0.0

    def _restricted(self, eps: float) -> "Measure":
        raise NotImplementedError

    def _flatten_into(self, flat: "FlatMeasure", log_scale: float) -> None:
        raise NotImplementedError


@dataclass
class FlatMeasure:
    """Flattened view: atom logs and tail density pieces ``(t_lo, t_hi, h(t))``.

    ``t = 1 - x``; each piece callable is vectorized over t-arrays and already
    includes any scaling.  ``singular`` marks pieces whose density is unbounded
    as t -> 0 (power tails with alpha < 1).
    """

    log_positions: list = field(default_factory=list)
    log_weights: list = field(default_factory=list)
    pieces: list = field(default_factory=list)   # (t_lo, t_hi, callable, singular)

    def freeze(self):
        self.log_positions = np.asarray(self.log_positions, dtype=float)
        self.log_weights = np.asarray(self.log_weights, dtype=float)

    @property
    def has_atoms(self) -> bool:
        return len(self.log_positions) > 0

    @property
    def has_density(self) -> bool:
        return len(self.pieces) > 0


@dataclass(frozen=True)
class AtomicMeasure(Measure):
    """sum_k c_k * delta_{a_k} with log a_k < 0 (all atoms strictly inside (0,1))."""

    log_positions: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        la = np.array(self.log_positions, dtype=float)
        lc = np.array(self.log_weights, dtype=float)
        if la.shape != lc.shape or la.ndim != 1:
            raise InvalidParameterError("atom position/weight arrays must match")
        if np.any(la >= 0.0) or not np.all(np.isfinite(la)):
            raise InvalidParameterError(
                "atoms must lie strictly inside (0, 1); an atom at 1 is not "
                "an embedding measure")
        if np.any(np.isnan(lc)) or np.any(lc == math.inf):
            raise InvalidParameterError("atom weights must be finite")
        order = np.argsort(la)
        la, lc = la[order], lc[order]
        la.setflags(write=False)
        lc.setflags(write=False)
        object.__setattr__(self, "log_positions", la)
        object.__setattr__(self, "log_weights", lc)

    @property
    def positions(self) -> np.ndarray:
        return np.exp(self.log_positions)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        return log_sum(self.log_weights + s[..., None] * self.log_positions,
                       axis=-1)

    def _log_suffix_masses(self) -> np.ndarray:
        """log of the mass of the atoms k, k+1, ... (positions ascending) for
        k = 0..K; the empty suffix K has -inf."""
        return np.append(np.logaddexp.accumulate(self.log_weights[::-1])[::-1],
                         NEG_INF)

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        # atom at a is in J_eps iff a >= 1-eps iff log a >= log1p(-eps);
        # eps = 1 gives log1p(-1) = -inf, which keeps every atom
        with np.errstate(divide="ignore"):
            first = np.searchsorted(self.log_positions, np.log1p(-eps))
        return np.exp(self._log_suffix_masses()[first])

    def _mass_above(self, b: float) -> float:
        if b <= 0.0:
            return self.total_mass
        first = np.searchsorted(self.log_positions, math.log(b), side="right")
        return float(np.exp(self._log_suffix_masses()[first]))

    def _restricted(self, eps: float) -> "AtomicMeasure":
        cutoff = math.log1p(-eps) if eps < 1.0 else NEG_INF
        mask = self.log_positions >= cutoff
        return AtomicMeasure(self.log_positions[mask], self.log_weights[mask])

    def sublinear_norm_exact(self) -> float | None:
        # sup over eps of mu(J_eps)/eps is attained at eps = 1 - a_k, where
        # the atoms k, k+1, ... are in J_eps
        masses = np.exp(self._log_suffix_masses()[:-1])
        return float(np.max(masses / -np.expm1(self.log_positions), initial=0.0))

    def _flatten_into(self, flat: FlatMeasure, log_scale: float) -> None:
        flat.log_positions.extend(self.log_positions)
        flat.log_weights.extend(self.log_weights + log_scale)

    def to_config(self) -> dict:
        return {"kind": "atomic",
                "atoms": [[float(a), float(c)]
                          for a, c in zip(self.positions, self.weights)]}


def atomic(atoms) -> AtomicMeasure:
    """Atomic measure from ``[(a_k, c_k), ...]`` pairs in the linear domain."""
    if not atoms:
        raise InvalidParameterError("atomic measure needs at least one atom")
    pos, wts = zip(*atoms)
    pos = np.asarray(pos, dtype=float)
    wts = np.asarray(wts, dtype=float)
    if np.any(pos <= 0.0) or np.any(pos >= 1.0):
        raise InvalidParameterError("atom positions must lie in (0, 1)")
    if np.any(wts <= 0.0):
        raise InvalidParameterError("atom weights must be positive")
    if np.unique(pos).size != pos.size:
        raise InvalidParameterError("atom positions must be distinct")
    return AtomicMeasure(np.log(pos), np.log(wts))


def atomic_from_logs(log_positions, log_weights) -> AtomicMeasure:
    """Atomic measure directly from log positions/weights (construction use)."""
    return AtomicMeasure(np.asarray(log_positions, float),
                         np.asarray(log_weights, float))


def point_mass(a: float, c: float = 1.0) -> AtomicMeasure:
    return atomic([(a, c)])


@dataclass(frozen=True)
class PowerTailMeasure(Measure):
    """Density ``C*alpha*(1-x)**(alpha-1)`` on [x0, 1); mass C*(1-x0)**alpha."""

    coefficient: float
    alpha: float
    x0: float = 0.0

    def __post_init__(self):
        if self.coefficient <= 0.0:
            raise InvalidParameterError("power tail coefficient must be positive")
        if self.alpha <= 0.0:
            raise InvalidParameterError("power tail alpha must be positive")
        if not 0.0 <= self.x0 < 1.0:
            raise InvalidParameterError("x0 must lie in [0, 1)")

    @property
    def width(self) -> float:
        return 1.0 - self.x0

    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        # C*alpha*B(s+1, alpha) times the regularized upper tail at x0, whose
        # underflow to 0 gives a -inf log moment
        v = math.log(self.coefficient) + math.log(self.alpha) + betaln(s + 1.0, self.alpha)
        if self.x0 > 0.0:
            with np.errstate(divide="ignore"):
                v = v + np.log(betaincc(s + 1.0, self.alpha, self.x0))
        return v

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        return self.coefficient * np.minimum(eps, self.width) ** self.alpha

    def _restricted(self, eps: float) -> "PowerTailMeasure":
        return PowerTailMeasure(self.coefficient, self.alpha,
                                x0=max(self.x0, 1.0 - eps))

    def bounded_density_sup(self) -> float | None:
        if self.alpha < 1.0:
            return None
        if self.alpha == 1.0:
            return self.coefficient
        return self.coefficient * self.alpha * self.width ** (self.alpha - 1.0)

    def sublinear_norm_exact(self) -> float | None:
        if self.alpha < 1.0:
            return math.inf          # mu(J_eps)/eps = C eps^(alpha-1) blows up
        if self.alpha == 1.0:
            return self.coefficient
        return self.coefficient * self.width ** (self.alpha - 1.0)

    def _flatten_into(self, flat: FlatMeasure, log_scale: float) -> None:
        c = math.exp(log_scale) * self.coefficient * self.alpha
        a = self.alpha
        flat.pieces.append(
            (0.0, self.width, lambda t, c=c, a=a: c * t ** (a - 1.0), a < 1.0))

    def to_config(self) -> dict:
        return {"kind": "powertail", "C": float(self.coefficient),
                "alpha": float(self.alpha), "x0": float(self.x0)}


@dataclass(frozen=True)
class PiecewiseDensityMeasure(Measure):
    """Constant density per piece: density[i] on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        de = np.array(self.densities, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or de.size != bp.size - 1:
            raise InvalidParameterError(
                "need k+1 breakpoints for k densities")
        if not np.all(np.diff(bp) > 0.0):
            raise InvalidParameterError("breakpoints must be strictly increasing")
        if bp[0] < 0.0 or bp[-1] > 1.0:
            raise InvalidParameterError("breakpoints must lie in [0, 1]")
        if np.any(de < 0.0) or not np.any(de > 0.0):
            raise InvalidParameterError("densities must be >= 0 with positive mass")
        bp.setflags(write=False)
        de.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "densities", de)

    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        terms = [math.log(h) + log_power_interval(
                     s, math.log(lo) if lo > 0.0 else NEG_INF, math.log(hi))
                 for lo, hi, h in zip(self.breakpoints[:-1], self.breakpoints[1:],
                                      self.densities)
                 if h > 0.0]
        return log_sum(terms, axis=0)

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        # each piece's overlap with [1-eps, 1] times its density
        overlap = self.breakpoints[1:] - np.maximum(self.breakpoints[:-1],
                                                    1.0 - eps[..., None])
        return (np.maximum(overlap, 0.0) * self.densities).sum(axis=-1)

    def _restricted(self, eps: float) -> "Measure":
        lo_cut = 1.0 - eps
        bp = [lo_cut]
        de = []
        for lo, hi, h in zip(self.breakpoints[:-1], self.breakpoints[1:],
                             self.densities):
            lo2, hi2 = max(lo, lo_cut), hi
            if hi2 > lo2:
                if hi2 > bp[-1]:
                    bp.append(hi2)
                    de.append(h)
        if not de or not any(d > 0.0 for d in de):
            # empty restriction: represent as a zero atomic measure
            return AtomicMeasure(np.array([]), np.array([]))
        return PiecewiseDensityMeasure(np.array(bp), np.array(de))

    def bounded_density_sup(self) -> float:
        return float(self.densities.max())

    def sublinear_norm_exact(self) -> float:
        # mu(J_eps)/eps is monotone between breakpoints; sup over candidates
        # eps = 1 - b_i, eps = 1 and the eps -> 0 limit (density of the last
        # piece, zero if the support ends before 1)
        eps = np.append(1.0 - self.breakpoints[:-1], 1.0)
        limit = self.densities[-1] if self.breakpoints[-1] >= 1.0 else 0.0
        return float(np.max(self._tail_masses(eps) / eps, initial=limit))

    def _flatten_into(self, flat: FlatMeasure, log_scale: float) -> None:
        scale = math.exp(log_scale)
        for lo, hi, h in zip(self.breakpoints[:-1], self.breakpoints[1:],
                             self.densities):
            if h > 0.0:
                val = scale * h
                flat.pieces.append(
                    (1.0 - hi, 1.0 - lo, lambda t, v=val: np.full_like(
                        np.asarray(t, dtype=float), v), False))

    def to_config(self) -> dict:
        return {"kind": "piecewise",
                "breakpoints": [float(b) for b in self.breakpoints],
                "densities": [float(d) for d in self.densities]}


def lebesgue() -> PiecewiseDensityMeasure:
    """Lebesgue measure on [0, 1]."""
    return PiecewiseDensityMeasure(np.array([0.0, 1.0]), np.array([1.0]))


@dataclass(frozen=True)
class ScaledMeasure(Measure):
    """c * inner for c > 0."""

    scale: float
    inner: Measure

    def __post_init__(self):
        if self.scale <= 0.0:
            raise InvalidParameterError("scale must be positive")

    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        return math.log(self.scale) + self.inner._log_moments(s)

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        return self.scale * self.inner._tail_masses(eps)

    def _mass_above(self, b: float) -> float:
        return self.scale * self.inner.mass_above(b)

    def _restricted(self, eps: float) -> "ScaledMeasure":
        return ScaledMeasure(self.scale, self.inner.restricted_to_tail(eps))

    def bounded_density_sup(self) -> float | None:
        inner = self.inner.bounded_density_sup()
        return None if inner is None else self.scale * inner

    def sublinear_norm_exact(self) -> float | None:
        inner = self.inner.sublinear_norm_exact()
        return None if inner is None else self.scale * inner

    def _flatten_into(self, flat: FlatMeasure, log_scale: float) -> None:
        self.inner._flatten_into(flat, log_scale + math.log(self.scale))

    def to_config(self) -> dict:
        return {"kind": "scaled", "c": float(self.scale),
                "inner": self.inner.to_config()}


@dataclass(frozen=True)
class SumMeasure(Measure):
    """mu_1 + ... + mu_k."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise InvalidParameterError("sum measure needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        return log_sum([p._log_moments(s) for p in self.parts], axis=0)

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        return np.sum([p._tail_masses(eps) for p in self.parts], axis=0)

    def _mass_above(self, b: float) -> float:
        return math.fsum(p.mass_above(b) for p in self.parts)

    def _restricted(self, eps: float) -> "SumMeasure":
        return SumMeasure(tuple(p.restricted_to_tail(eps) for p in self.parts))

    def bounded_density_sup(self) -> float | None:
        sups = [p.bounded_density_sup() for p in self.parts]
        if any(s is None for s in sups):
            return None
        return math.fsum(sups)

    def _flatten_into(self, flat: FlatMeasure, log_scale: float) -> None:
        for p in self.parts:
            p._flatten_into(flat, log_scale)

    def to_config(self) -> dict:
        return {"kind": "sum", "parts": [p.to_config() for p in self.parts]}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def restrict_tail(mu: Measure, m: int) -> Measure:
    """The tail part mu'_m: the restriction of mu to J_{1/m}."""
    if m < 2:
        raise InvalidParameterError("m must be >= 2")
    return mu.restricted_to_tail(1.0 / m)


def default_epsilon_grid() -> np.ndarray:
    """Geometric grid eps = 2**-j, j = 0..40, decreasing."""
    return 2.0 ** -np.arange(0, _GRID_LEVELS + 1, dtype=float)


@dataclass(frozen=True)
class PowerFit:
    """Least-squares fit of log mu(J_eps) = log C + alpha*log eps."""

    coefficient: float
    alpha: float
    residual: float
    trusted: bool        # alpha claim only when residual < RESIDUAL_THRESHOLD


RESIDUAL_THRESHOLD = 1e-3


@dataclass(frozen=True)
class ModulusReport:
    """Near-1 behavior of a measure sampled on a geometric eps-grid."""

    sublinear_norm: float
    sup_is_exact: bool       # False means grid-sup, a lower estimate
    vanishing: bool
    grid: np.ndarray
    ratios: np.ndarray
    power_fit: PowerFit | None


def modulus_report(mu: Measure) -> ModulusReport:
    """Sublinear norm estimate, vanishing-trend flag and power-modulus fit on
    :func:`default_epsilon_grid`.

    The sublinear norm is the analytic supremum of ``mu(J_eps)/eps`` where a
    closed form exists; otherwise it is the grid supremum, flagged as a lower
    estimate.  The vanishing flag is a monotone-decrease test of the tail
    ratios over the fine half of the grid.
    """
    grid = default_epsilon_grid()
    masses = mu.tail_mass(grid)
    ratios = masses / grid

    exact = mu.sublinear_norm_exact()
    if exact is not None:
        norm, is_exact = exact, True
    else:
        norm, is_exact = float(ratios.max()), False

    half = grid.size // 2
    tail_ratios = ratios[half:]
    nonincreasing = bool(np.all(np.diff(tail_ratios) <= 1e-12 * ratios.max()))
    vanishing = nonincreasing and (
        tail_ratios[-1] == 0.0
        or tail_ratios[-1] < tail_ratios[0] * (1.0 - 1e-9))

    fit = None
    positive = masses > 0.0
    if positive.sum() >= 3:
        x = np.log(grid[positive])
        y = np.log(masses[positive])
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        fit = PowerFit(coefficient=math.exp(intercept), alpha=float(slope),
                       residual=resid, trusted=resid < RESIDUAL_THRESHOLD)
    return ModulusReport(sublinear_norm=norm, sup_is_exact=is_exact,
                         vanishing=vanishing, grid=grid, ratios=ratios,
                         power_fit=fit)


def rho_hypothesis_violation(mu: Measure, majorant: Measure
                             ) -> tuple[float, float, float] | None:
    """Largest eps where the hypothesis ``mu(J_eps) <= rho(eps)`` fails,
    with ``rho(eps) = majorant(J_eps)``, as ``(eps, mu(J_eps), rho(eps))``;
    None when it holds at every eps checked.

    The eps checked are :func:`default_epsilon_grid` and, for every atom a_k
    of mu, eps = 1 - a_k, where the atom enters J_eps and mu(J_eps)/rho(eps)
    peaks (raised by 4 ulps, so that rounding cannot leave the atom out).
    """
    at_atoms = -np.expm1(np.asarray(mu.flattened().log_positions, dtype=float))
    at_atoms = np.minimum(at_atoms * (1.0 + 4.0 * np.finfo(float).eps), 1.0)
    eps = np.sort(np.concatenate((default_epsilon_grid(), at_atoms)))[::-1]
    bound = majorant.tail_mass(eps)
    mass = mu.tail_mass(eps)
    bad = np.flatnonzero(mass > bound * (1.0 + 1e-12) + 1e-300)
    if bad.size == 0:
        return None
    k = bad[0]
    return float(eps[k]), float(mass[k]), float(bound[k])


@dataclass(frozen=True)
class MajorizationCheck:
    lhs: float
    rhs: float
    holds: bool
    slack: float
    quadrature_error: float


def integrate_against(mu: Measure, g) -> tuple[float, float]:
    """integral g dmu for a continuous g given as a vectorized callable of x.

    Atoms are evaluated directly (positions materialized from their logs, so
    extreme near-1 atoms lose position precision here; moment-type queries
    should use :meth:`Measure.log_moments` instead).  Density parts run on
    the measure's fixed quadrature plan in the tail variable.
    """
    flat = mu.flattened()
    total = 0.0
    if flat.has_atoms:
        pos = np.exp(flat.log_positions)
        wts = np.exp(flat.log_weights)
        total += float(np.dot(wts, np.asarray(g(pos), dtype=float)))
    plan = quadrature.QuadraturePlan.from_pieces(flat.pieces)
    value, err, _ = plan.integrate(lambda t: g(1.0 - t))
    return total + value, err


def rho_majorization_check(mu: Measure, majorant: Measure,
                           g) -> MajorizationCheck:
    """Check ``integral g dmu <= integral g dnu`` for the rho majorant nu.

    nu is the measure ``rho'(1-x) dx`` of a tail majorant rho, so that
    ``nu(J_eps) = rho(eps)``; ``rho(eps) = C*eps**alpha`` is
    ``PowerTailMeasure(C, alpha)``.  The hypothesis ``mu(J_eps) <= rho(eps)``
    is verified first (on the eps-grid and where each atom of mu enters
    J_eps); failure raises
    :class:`HypothesisViolationError`.  ``g`` must be continuous, positive
    and increasing on [0, 1).
    """
    bad = rho_hypothesis_violation(mu, majorant)
    if bad is not None:
        eps, mass, bound = bad
        raise HypothesisViolationError(
            f"mu(J_eps) = {mass:.6g} exceeds rho(eps) = {bound:.6g} "
            f"at eps = {eps:.3g}")
    lhs, lhs_err = integrate_against(mu, g)
    rhs, rhs_err = integrate_against(majorant, g)
    slack = rhs - lhs
    scale = max(1.0, abs(rhs))
    return MajorizationCheck(lhs=lhs, rhs=rhs,
                             holds=bool(lhs <= rhs + 1e-9 * scale),
                             slack=slack, quadrature_error=lhs_err + rhs_err)


def measure_from_config(spec: dict) -> Measure:
    """Build a measure from its config-file form.

    Accepted kinds: ``atomic``, ``powertail``, ``lebesgue``, ``piecewise``,
    ``scaled``, ``sum``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameterError("measure spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "atomic":
            return atomic([tuple(pair) for pair in spec["atoms"]])
        if kind == "powertail":
            return PowerTailMeasure(spec["C"], spec["alpha"],
                                    x0=spec.get("x0", 0.0))
        if kind == "lebesgue":
            return lebesgue()
        if kind == "piecewise":
            return PiecewiseDensityMeasure(np.asarray(spec["breakpoints"], float),
                                           np.asarray(spec["densities"], float))
        if kind == "scaled":
            return ScaledMeasure(spec["c"], measure_from_config(spec["inner"]))
        if kind == "sum":
            return SumMeasure(tuple(measure_from_config(p) for p in spec["parts"]))
    except InvalidParameterError:
        raise
    except KeyError as exc:
        raise InvalidParameterError(
            f"measure spec missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"malformed {kind} measure spec: {exc}") from exc
    raise InvalidParameterError(f"unknown measure kind {kind!r}")
