"""Finite positive Borel measures on [0,1] with log-domain moment queries.

Variants: atomic measures (positions and weights both kept as logarithms,
so atoms like ``1 - 1e-35`` remain meaningful), power tails with density
``C*alpha*(1-x)**(alpha-1)``, piecewise-constant densities, scalings and
finite sums.  Atoms at exactly 1 are rejected at construction: embedding
measures must satisfy ``mu({1}) = 0``.

Moments ``integral x**s dmu`` are closed forms in the log domain for
every variant (incomplete-Beta form for truncated power tails, whose upper
tail 1 - I_x0(s+1, alpha) is evaluated as I_(1-x0)(alpha, s+1), and only on
the orders where a bound on the lower tail says it can differ from 1.0;
a tail below 2**-900 is re-read from betaincc), finite for ``s`` up to
~1e12, and array-valued
(:meth:`Measure.log_moments`; the scalar queries wrap it).  A power tail's
log moment is no more exact than scipy's ``betaln``, which against 200-bit
mpmath (alpha 0.6-2.94) is off by up to 1.8e-12 at order 1e3, 4.4e-11 at
3e4, 1.4e-9 at 1e6 and 4.5e-9 at 2.5e6, and within 5e-15 from 1e8 on; that
band holds for alpha up to about 3 only (3.7e-7 at alpha 148, 1.2e-6 at
alpha 400).  The tail masses ``mu(J_eps)`` (:meth:`Measure.tail_mass`) are
closed forms as well, array-valued, and need no Beta function, so neither does
:attr:`Measure.total_mass`, which is ``tail_mass(1.0)``; a mass past the
double range reads inf, and :meth:`Measure.log_tail_mass` keeps its log.
Generic integrals against user functions run on one fixed
:class:`~muntzlab.quadrature.QuadraturePlan` built from the flattened
measure's density pieces, in the tail variable ``t = 1 - x``; the measure
keeps it (:attr:`Measure.plan`), and :func:`lebesgue` returns one shared
instance, so its plan is built once per process.  Plans of one piece
layout share their cells and nodes, and each keeps its own weights.

A tail majorant rho of the paper (``mu(J_eps) <= rho(eps)``) is itself a
measure: ``nu = rho'(1-x) dx`` has ``nu(J_eps) = rho(eps)``, and the power
majorant ``rho(eps) = C*eps**alpha`` is ``PowerTailMeasure(C, alpha)``.
:func:`rho_hypothesis_violation` and :func:`rho_majorization_check` take
that measure.

Restrictions produced by :func:`restrict_tail` may carry zero mass (the
embedding of an empty measure is the zero operator); explicit constructors
still require positive mass.

Power tails are the only readers of scipy (``scipy.special``'s log-Beta and
incomplete Beta functions), and only their moments call it: a power tail is
built, restricted, integrated on its plan and measured without it.  It is
imported at the first Beta evaluation and nowhere else, so a run whose
measures have no power-tail moments never loads scipy: the ``rho``
majorant is a power tail read only through its tail masses and its plan.
A run that takes a power tail's moments pays the import inside its first
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import HypothesisViolationError, InvalidParameterError
from .logdomain import NEG_INF, log_power_interval, log_sum
from .sequences import from_config, real_number

_GRID_LEVELS = 40
# log of a lower incomplete-Beta tail I below which 1 - I rounds to 1.0: e**-44
# is about 700 times under 2**-54, half an ulp below 1
_LOG_NEGLIGIBLE_LOWER_TAIL = -44.0
# below this the symmetric form of the upper tail loses digits, down to a
# flush to 0 under about 1e-300; such entries are re-read from betaincc
_SYMMETRIC_TAIL_FLOOR = 2.0 ** -900


def _special():
    """scipy.special, imported at the first Beta evaluation: by a power
    tail's log moments or upper tail, never when a measure is built or read
    from a config.  The one place in ``muntzlab`` that imports scipy."""
    import scipy.special
    return scipy.special


def _log_lower_tail_bound(a, b: float, x0: float, log_beta):
    """Upper bound on log I_x0(a, b) for 0 < x0 < 1, given betaln(a, b):
    the integrand t**(a-1) (1-t)**(b-1) of the lower tail is at most
    t**(a-1) * max(1, (1-x0)**(b-1)) on [0, x0]."""
    return (a * math.log(x0) + max(0.0, (b - 1.0) * math.log1p(-x0))
            - np.log(a) - log_beta)


def _upper_tail(a, b: float, x0: float, log_beta) -> np.ndarray:
    """The regularized upper tail 1 - I_x0(a, b) for 0 < x0 < 1, given
    betaln(a, b), in its symmetric form I_(1-x0)(b, a) (DLMF 8.17.4), which
    scipy evaluates several times faster; it runs only on the orders where
    the lower tail can reach e**-44, and is 1.0 elsewhere.  The entries
    below 2**-900 are re-read from betaincc(a, b, x0), which keeps its
    digits there (a subnormal result keeps those it can hold)."""
    special = _special()
    bound = _log_lower_tail_bound(a, b, x0, log_beta)
    tail = special.betainc(b, a, 1.0 - x0, out=np.ones(np.shape(a)),
                           where=bound >= _LOG_NEGLIGIBLE_LOWER_TAIL)
    deep = tail < _SYMMETRIC_TAIL_FLOOR
    if np.any(deep):
        tail[deep] = special.betaincc(np.broadcast_to(a, tail.shape)[deep],
                                      b, x0)
    return tail


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
    def total_mass(self) -> float:
        """mu([0, 1]), the closed-form tail mass at eps = 1."""
        return self.tail_mass(1.0)

    def tail_mass(self, eps):
        """mu([1-eps, 1]) elementwise over an array of eps in (0, 1]; a float
        eps gives a float."""
        eps_arr = np.asarray(eps, dtype=float)
        if not np.all((eps_arr > 0.0) & (eps_arr <= 1.0)):
            raise InvalidParameterError("eps must lie in (0, 1]")
        masses = self._tail_masses(eps_arr)
        return float(masses) if eps_arr.ndim == 0 else masses

    def log_tail_mass(self, eps) -> np.ndarray:
        """log mu([1-eps, 1]) elementwise over an array of eps in (0, 1]
        (-inf for no mass): finite where :meth:`tail_mass` is past the double
        range and reads inf."""
        eps_arr = np.asarray(eps, dtype=float)
        if not np.all((eps_arr > 0.0) & (eps_arr <= 1.0)):
            raise InvalidParameterError("eps must lie in (0, 1]")
        return self._log_tail_masses(eps_arr)

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

    @cached_property
    def plan(self) -> quadrature.QuadraturePlan:
        """The quadrature plan of the density pieces, built when first read."""
        return quadrature.QuadraturePlan.from_pieces(self.flattened().pieces)

    def to_config(self) -> dict:
        raise NotImplementedError

    # hooks implemented per variant
    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log_tail_masses(self, eps: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self._tail_masses(eps))

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
    includes any scaling.
    """

    log_positions: list = field(default_factory=list)
    log_weights: list = field(default_factory=list)
    pieces: list = field(default_factory=list)   # (t_lo, t_hi, callable)

    def freeze(self):
        self.log_positions = np.asarray(self.log_positions, dtype=float)
        self.log_weights = np.asarray(self.log_weights, dtype=float)

    @property
    def has_atoms(self) -> bool:
        return len(self.log_positions) > 0

    @property
    def has_density(self) -> bool:
        return len(self.pieces) > 0


def entry_eps(log_positions) -> np.ndarray:
    """e_k = 1 - a_k = -expm1(log a_k), the eps at which the atom at a_k
    enters J_eps; descending where the positions ascend.  Membership is
    decided in eps space (e_k <= eps), so the atom lies in J_{e_k}; comparing
    log a_k >= log1p(-eps) can leave it out when log1p rounds up."""
    return -np.expm1(log_positions)


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

    def _log_tail_masses(self, eps: np.ndarray) -> np.ndarray:
        inside = np.searchsorted(entry_eps(self.log_positions)[::-1], eps,
                                 side="right")
        return self._log_suffix_masses()[self.log_positions.size - inside]

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):     # a mass past the double range
            return np.exp(self._log_tail_masses(eps))

    def _mass_above(self, b: float) -> float:
        if b <= 0.0:
            return self.total_mass
        first = np.searchsorted(self.log_positions, math.log(b), side="right")
        with np.errstate(over="ignore"):
            return float(np.exp(self._log_suffix_masses()[first]))

    def _restricted(self, eps: float) -> "AtomicMeasure":
        mask = entry_eps(self.log_positions) <= eps
        return AtomicMeasure(self.log_positions[mask], self.log_weights[mask])

    def sublinear_norm_exact(self) -> float | None:
        # sup over eps of mu(J_eps)/eps is attained at eps = 1 - a_k, where
        # the atoms k, k+1, ... are in J_eps
        with np.errstate(over="ignore"):      # past the double range
            masses = np.exp(self._log_suffix_masses()[:-1])
            ratios = masses / entry_eps(self.log_positions)
        return float(np.max(ratios, initial=0.0))

    def _flatten_into(self, flat: FlatMeasure, log_scale: float) -> None:
        flat.log_positions.extend(self.log_positions)
        flat.log_weights.extend(self.log_weights + log_scale)

    def to_config(self) -> dict:
        """Linear ``atoms`` when they read back to the same logs, else
        ``log_atoms`` (an atom at ``1 - 1e-18`` is 1.0 linearly)."""
        linear = np.column_stack([self.positions, self.weights])
        logs = np.column_stack([self.log_positions, self.log_weights])
        with np.errstate(divide="ignore"):
            if np.array_equal(np.log(linear), logs):
                return {"kind": "atomic", "atoms": linear.tolist()}
        return {"kind": "atomic", "log_atoms": logs.tolist()}


def atomic(atoms) -> AtomicMeasure:
    """Atomic measure from ``[(a_k, c_k), ...]`` pairs in the linear domain,
    refused where :func:`_atomic_from_log_pairs` refuses their logs: atoms
    are stored by their logs, so two positions whose logs round to one
    double (0.05 and 0.05000000000000001) are refused, by name."""
    pairs = np.array(atoms, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _atomic_from_log_pairs(np.log(pairs), pairs)


def _atomic_from_log_pairs(log_atoms, atoms=None) -> AtomicMeasure:
    """Atomic measure from ``[(log a_k, log c_k), ...]`` pairs: at least one,
    with distinct positions in (0, 1) and positive weights.  A refusal of
    coinciding positions names two of them, as the linear ``atoms`` the logs
    were taken of when given."""
    if len(log_atoms) == 0:
        raise InvalidParameterError("atomic measure needs at least one atom")
    log_pos, log_wts = (np.asarray(v, dtype=float) for v in zip(*log_atoms))
    if not np.all((log_pos < 0.0) & (log_pos > NEG_INF)):
        raise InvalidParameterError("atom positions must lie in (0, 1)")
    if not np.all(log_wts > NEG_INF):
        raise InvalidParameterError("atom weights must be positive")
    order = np.argsort(log_pos, kind="stable")
    ties = np.flatnonzero(np.diff(log_pos[order]) == 0.0)
    if ties.size:
        i, j = order[ties[0]:ties[0] + 2]
        what, named = (("log positions", log_pos) if atoms is None
                       else ("positions", atoms[:, 0]))
        raise InvalidParameterError(
            f"atom positions must be distinct once stored as logs: {what} "
            f"{float(named[i])!r} and {float(named[j])!r} both store as log "
            f"{float(log_pos[i])!r}")
    return AtomicMeasure(log_pos, log_wts)


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
        # a NaN fails every comparison, so each check is the one that must hold
        if not 0.0 < self.coefficient < math.inf:
            raise InvalidParameterError(
                "power tail coefficient must be positive and finite")
        if not 0.0 < self.alpha < math.inf:
            raise InvalidParameterError(
                "power tail alpha must be positive and finite")
        if not 0.0 <= self.x0 < 1.0:
            raise InvalidParameterError("x0 must lie in [0, 1)")

    @property
    def width(self) -> float:
        return 1.0 - self.x0

    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        # C*alpha*B(s+1, alpha) times the regularized upper tail at x0, whose
        # underflow to 0 gives a -inf log moment
        a = s + 1.0
        log_beta = _special().betaln(a, self.alpha)
        v = math.log(self.coefficient) + math.log(self.alpha) + log_beta
        if self.x0 > 0.0:
            tail = _upper_tail(a, self.alpha, self.x0, log_beta)
            with np.errstate(divide="ignore"):
                v = v + np.log(tail)
        return v

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        return self.coefficient * np.minimum(eps, self.width) ** self.alpha

    def _restricted(self, eps: float) -> "PowerTailMeasure":
        return PowerTailMeasure(self.coefficient, self.alpha,
                                x0=max(self.x0, 1.0 - eps))

    # the density and mu(J_eps)/eps peak at x0 (at alpha = 1, width**0 is 1
    # exactly)
    def bounded_density_sup(self) -> float | None:
        if self.alpha < 1.0:
            return None
        return self.coefficient * self.alpha * self.width ** (self.alpha - 1.0)

    def sublinear_norm_exact(self) -> float | None:
        if self.alpha < 1.0:
            return math.inf          # mu(J_eps)/eps = C eps^(alpha-1) blows up
        return self.coefficient * self.width ** (self.alpha - 1.0)

    def _flatten_into(self, flat: FlatMeasure, log_scale: float) -> None:
        c = math.exp(log_scale) * self.coefficient * self.alpha
        a = self.alpha
        flat.pieces.append(
            (0.0, self.width, lambda t, c=c, a=a: c * t ** (a - 1.0)))

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
        if not (np.all((de >= 0.0) & (de < np.inf)) and np.any(de > 0.0)):
            raise InvalidParameterError(
                "densities must be finite and >= 0 with positive mass")
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

    def _mass_above(self, b: float) -> float:
        # each piece's overlap with (b, 1] in x: mu(J_{1-b}) would read
        # 1 - (1 - b), which rounds below b for some b < 1/2
        overlap = self.breakpoints[1:] - np.maximum(self.breakpoints[:-1], b)
        return float((np.maximum(overlap, 0.0) * self.densities).sum())

    def _restricted(self, eps: float) -> "Measure":
        # the pieces ending above 1 - eps, the first one cut there unless it
        # starts above it
        keep = self.breakpoints[1:] > 1.0 - eps
        de = self.densities[keep]
        if not np.any(de > 0.0):
            # empty restriction: represent as a zero atomic measure
            return AtomicMeasure(np.array([]), np.array([]))
        lo = max(1.0 - eps, float(self.breakpoints[:-1][keep][0]))
        bp = np.append(lo, self.breakpoints[1:][keep])
        return PiecewiseDensityMeasure(bp, de)

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
                        np.asarray(t, dtype=float), v)))

    def to_config(self) -> dict:
        return {"kind": "piecewise",
                "breakpoints": [float(b) for b in self.breakpoints],
                "densities": [float(d) for d in self.densities]}


def lebesgue() -> PiecewiseDensityMeasure:
    """Lebesgue measure on [0, 1]: one shared instance, so its plan, the
    denominator of every L^p ratio, is built once per process."""
    return _LEBESGUE


_LEBESGUE = PiecewiseDensityMeasure(np.array([0.0, 1.0]), np.array([1.0]))


@dataclass(frozen=True)
class ScaledMeasure(Measure):
    """c * inner for c > 0."""

    scale: float
    inner: Measure

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise InvalidParameterError("scale must be positive and finite")

    def _log_moments(self, s: np.ndarray) -> np.ndarray:
        return math.log(self.scale) + self.inner._log_moments(s)

    def _tail_masses(self, eps: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.scale * self.inner._tail_masses(eps)

    def _log_tail_masses(self, eps: np.ndarray) -> np.ndarray:
        return math.log(self.scale) + self.inner._log_tail_masses(eps)

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


def _fsum_or_inf(values) -> float:
    """``math.fsum`` of non-negative values, inf past the double range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


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
        with np.errstate(over="ignore"):
            return np.sum([p._tail_masses(eps) for p in self.parts], axis=0)

    def _log_tail_masses(self, eps: np.ndarray) -> np.ndarray:
        return log_sum([p._log_tail_masses(eps) for p in self.parts], axis=0)

    def _mass_above(self, b: float) -> float:
        return _fsum_or_inf(p.mass_above(b) for p in self.parts)

    def _restricted(self, eps: float) -> "SumMeasure":
        return SumMeasure(tuple(p.restricted_to_tail(eps) for p in self.parts))

    def bounded_density_sup(self) -> float | None:
        sups = [p.bounded_density_sup() for p in self.parts]
        return None if None in sups else _fsum_or_inf(sups)

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
    with np.errstate(over="ignore"):          # a ratio past the double range
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
    of mu, its :func:`entry_eps`, where the atom enters J_eps and
    mu(J_eps)/rho(eps) peaks.
    """
    at_atoms = entry_eps(mu.flattened().log_positions)
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
    value, err, _ = mu.plan.integrate(lambda t: g(1.0 - t))
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


def _atomic_from_config(spec: dict) -> AtomicMeasure:
    if "atoms" in spec and "log_atoms" in spec:
        raise InvalidParameterError(
            "atomic measure spec has both 'atoms' and 'log_atoms'; give one")
    if "log_atoms" in spec:
        return _atomic_from_log_pairs(
            [tuple(map(real_number, pair)) for pair in spec["log_atoms"]])
    return atomic([tuple(map(real_number, pair)) for pair in spec["atoms"]])


_MEASURE_KINDS = {
    "atomic": (("atoms", "log_atoms"), _atomic_from_config),
    "powertail": (("C", "alpha", "x0"), lambda spec: PowerTailMeasure(
        real_number(spec["C"]), real_number(spec["alpha"]),
        x0=real_number(spec.get("x0", 0.0)))),
    "lebesgue": ((), lambda spec: lebesgue()),
    "piecewise": (("breakpoints", "densities"), lambda spec: PiecewiseDensityMeasure(
        np.array([real_number(b) for b in spec["breakpoints"]]),
        np.array([real_number(d) for d in spec["densities"]]))),
    "scaled": (("c", "inner"), lambda spec: ScaledMeasure(
        real_number(spec["c"]), measure_from_config(spec["inner"]))),
    "sum": (("parts",), lambda spec: SumMeasure(
        tuple(measure_from_config(p) for p in spec["parts"]))),
}


def measure_from_config(spec: dict) -> Measure:
    """Build a measure from its config-file form.

    Accepted kinds: ``atomic`` (``atoms`` as linear ``[a, c]`` pairs or
    ``log_atoms`` as ``[log a, log c]`` pairs, not both), ``powertail``,
    ``lebesgue``, ``piecewise``, ``scaled``, ``sum``.  A field the kind does
    not read is refused, and every number must be a JSON number.  Building
    a measure imports no scipy, a ``powertail`` included: its first moment
    does (:func:`_special`).
    """
    return from_config(spec, "measure", _MEASURE_KINDS)
