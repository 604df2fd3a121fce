"""Randomized verification suites shared by the CLI and the test harness.

Each suite returns a result object with a ``violations`` list; an empty list
is the pass criterion.  Seeds are recorded so every run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, lp, measures, spectral
from .measures import (Measure, PowerTailMeasure, ScaledMeasure, atomic,
                       lebesgue, point_mass)
from .polynomials import random_unit, sorted_distinct
from .sequences import LambdaSequence, make_explicit, make_geometric


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    violations: tuple
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def paired_block_sequence(base: float = 7.0, companion: float = 1.5,
                          n_pairs: int = 11, n_singles: int = 2) -> LambdaSequence:
    """Quasilacunary sequence of paired blocks (base^k, companion*base^k)
    followed by singleton blocks; block bound 2, witnessed at gamma = 2."""
    vals = []
    for k in range(1, n_pairs + 1):
        vals += [base ** k, companion * base ** k]
    for j in range(1, n_singles + 1):
        vals.append(base ** (n_pairs + j))
    return make_explicit(vals)


def default_battery() -> list[tuple[str, LambdaSequence, Measure]]:
    """Six (Lambda, mu) pairs with 32-term sequences for certificate tests."""
    geo2 = make_geometric(2.0, 2.0, 32)
    geo3 = make_geometric(1.5, 3.0, 32)
    quasi = paired_block_sequence(n_pairs=15, n_singles=2)
    return [
        ("geo2-atom-half", geo2, point_mass(0.5)),
        ("geo2-lebesgue", geo2, lebesgue()),
        ("geo2-powertail2", geo2, PowerTailMeasure(1.0, 2.0)),
        ("geo3-atoms", geo3, atomic([(0.3, 1.0), (0.6, 0.5), (0.9, 0.25)])),
        ("quasi-scaled-leb", quasi, ScaledMeasure(0.5, lebesgue())),
        ("geo2-mixture", geo2, measures.SumMeasure((
            ScaledMeasure(0.5, lebesgue()), point_mass(0.25, 0.5)))),
    ]


CERTIFICATE_TRUNCATIONS = (4, 8, 16, 32)
CERTIFICATE_TOL = 1e-9


def certificate_suite() -> SuiteResult:
    """psi-certificate dominance over the battery: value >= op_norm at every
    truncation, with equality in the rank-1 atomic case."""
    violations = []
    checks = 0
    for name, seq, mu in default_battery():
        for n in CERTIFICATE_TRUNCATIONS:
            checks += 1
            problem = spectral.EmbeddingProblem(seq, mu, n)
            rep = spectral.analyze(problem, q_set=(2.0,))
            cert = spectral.psi_certificate(problem.truncated, mu)
            if cert.value < rep.op_norm - CERTIFICATE_TOL:
                violations.append((name, n, cert.value, rep.op_norm))
    # rank-1 equality case
    checks += 1
    seq1 = make_explicit([1.0])
    cert = spectral.psi_certificate(seq1, point_mass(0.5))
    op = spectral.analyze(spectral.EmbeddingProblem(seq1, point_mass(0.5), 1),
                          q_set=(2.0,)).op_norm
    equality_gap = abs(cert.value - op)
    if equality_gap > CERTIFICATE_TOL:
        violations.append(("rank1-equality", 1, cert.value, op))
    return SuiteResult(name="certificates", checks=checks,
                       violations=tuple(violations),
                       details={"equality_gap": equality_gap})


def _random_measure(rng) -> Measure:
    kind = rng.integers(0, 3)
    if kind == 0:
        k = int(rng.integers(1, 4))
        pos = sorted_distinct(rng.uniform(0.05, 0.95, size=k))
        wts = rng.uniform(0.1, 2.0, size=pos.size)
        return atomic(list(zip(pos, wts)))
    if kind == 1:
        return PowerTailMeasure(float(rng.uniform(0.5, 2.0)),
                                float(rng.uniform(1.0, 3.0)))
    return ScaledMeasure(float(rng.uniform(0.5, 2.0)), lebesgue())


def inequality_suite(instances: int = 200, seed: int = 20240901) -> SuiteResult:
    """Randomized checks of the three lemma-level inequalities:

    pointwise bound with convex weights, Bernstein-type sup-norm ratio
    (finite, positive), and rho-majorization of increasing integrands.
    """
    rng = np.random.default_rng(seed)
    seq = make_geometric(2.0, 2.0, 6)
    violations = []
    checks = 0
    max_bernstein = 0.0

    for i in range(instances):
        # pointwise bound at a random x with random convex weights
        f = random_unit(seq, rng, bias_last=(i % 2 == 1))
        beta = rng.uniform(0.0, 1.0, size=len(seq))
        beta /= beta.sum()
        x = float(rng.uniform(0.0, 1.0))
        checks += 1
        res = geometry.pointwise_bound_check(f, x, beta)
        if not res.holds:
            violations.append(("pointwise", i, res.lhs, res.rhs))

        # Bernstein ratio: finite and positive for nonzero polynomials
        checks += 1
        ratio = geometry.bernstein_ratio(f)
        max_bernstein = max(max_bernstein, ratio)
        if not (math.isfinite(ratio) and ratio > 0.0):
            violations.append(("bernstein", i, ratio, math.nan))

        # rho-majorization with a dominating power rho, the measure nu with
        # nu(J_eps) = coeff*eps**alpha, and increasing g
        checks += 1
        mu = _random_measure(rng)
        mod = measures.modulus_report(mu)
        alpha_fit = 1.0
        if mod.power_fit is not None and mod.power_fit.trusted:
            alpha_fit = max(1.0, min(mod.power_fit.alpha, 3.0))
        coeff = 2.0 * max(mod.sublinear_norm, mu.total_mass, 1.0)
        majorant = PowerTailMeasure(
            coeff, 1.0 if not math.isfinite(mod.sublinear_norm) else alpha_fit)
        s = float(rng.uniform(0.5, 40.0))
        check = measures.rho_majorization_check(
            mu, majorant, lambda xs, s=s: np.asarray(xs, dtype=float) ** s)
        if not check.holds:
            violations.append(("rho-majorization", i, check.lhs, check.rhs))
    return SuiteResult(name="inequalities", checks=checks,
                       violations=tuple(violations),
                       details={"max_bernstein_ratio": max_bernstein})


_INTERPOLATION_T = (0.25, 0.5, 0.75)


def interpolation_suite(samples: int = 100,
                        seed: int = 20240902) -> SuiteResult:
    """Interpolation inequality on three measures with certified endpoint
    constants, p0 = 1, p1 = 2.  The result carries the per-sample
    (index, lhs, rhs) records of every check, keyed ``name@t=..``.
    """
    seq = make_geometric(2.0, 2.0, 6)
    battery = [
        ("lebesgue", lebesgue()),
        ("scaled-leb", ScaledMeasure(2.0, lebesgue())),
        ("piecewise", measures.PiecewiseDensityMeasure(
            np.array([0.0, 0.5, 1.0]), np.array([0.5, 2.0]))),
    ]
    # every check samples the same polynomials: one draw, and at each p_t
    # the norms against every measure from one evaluation
    reports = lp.interpolation_checks(seq, [mu for _, mu in battery], 1.0, 2.0,
                                      _INTERPOLATION_T, n=5, samples=samples,
                                      seed=seed)
    violations = []
    checks = 0
    worst = -math.inf
    sample_records = {}
    for (name, _), row in zip(battery, reports):
        for rep in row:
            checks += 1
            if rep.inconclusive:
                violations.append((name, rep.t, "inconclusive", math.nan))
                continue
            worst = max(worst, rep.max_slack)
            sample_records[f"{name}@t={rep.t:g}"] = rep.records
            for v in rep.violations:
                violations.append((name, rep.t, v.lhs, v.rhs))
    return SuiteResult(name="interpolation", checks=checks,
                       violations=tuple(violations),
                       details={"max_slack": worst, "records": sample_records})
