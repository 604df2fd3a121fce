"""Spectral analysis of the truncated embedding operator and its certificates.

The embedding i_mu : M^2_Lambda -> L^2(mu), truncated to the span of the
first N normalized monomials g_n = lambda_n^(1/2) x^lambda_n, has singular
values equal to the square roots of the generalized eigenvalues of the
pencil (A, B), where A is the mu-Gramian and B the Lebesgue Gramian of the
g_n, whitened by the closed-form inverse Cholesky factor W of B; a spectrum
whose forward-error estimate cond(B) * 2^-53 exceeds FORWARD_ERROR_TOL is
refused (reduce N), and so is one whose Gramian or whitened pencil leaves
the double range, by the measure's mass.  B, W, cond(B) and psi depend on
the exponents alone, so
every problem and certificate reads them from the truncated sequence.  One
:class:`EmbeddingProblem` assembles A once at N; its truncations are blocks.
A measure without a density part is read through one whitened factor
X = F W^T with A = F^T F, one row per atom: a truncation is a block of its
columns, and a tail restriction mu'_m (the atoms within 1/m of 1) a block of
its rows, so the essential-norm trend of atoms restricts no measure; the
tail pencils of a measure with a density part go through one stacked
eigensolve.

Certificates are named upper bounds from the majorant function psi, from a
rho-majorization of the tail modulus, from compact support, and from
entrywise Gramian domination for sublinear measures.  The rho majorant is a
measure nu with nu(J_eps) = rho(eps), so the psi, rho and Hilbert-Schmidt
certificates are one routine over the integral of psi^2 (or Psi^2) against
a measure, mu or the majorant.  Both majorants come from one log-domain
evaluation, :meth:`PsiEvaluator.log_majorant`: the atoms of a measure are
one log-sum over its values, and a density integrates their exp, reading
the first two dyadic rounds of each width from the evaluator
(:meth:`PsiEvaluator.refined_head`), so the psi and rho certificates and
the pieces of one width share them.  A
certificate is COMPARABLE (usable as a bound at this truncation) only when
all of its recorded assumptions verified; soundness flags mark
psi-truncation caveats.  No certificate raises on a failed hypothesis: the
sublinear majorization A <= ||mu||_S B, like every other hypothesis, is a
recorded assumption, and a failed one gives the value +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import (IllConditionedBasisError, InvalidParameterError,
                     NumericalSoundnessError)
from .geometry import PSI_K_MAX, PsiEvaluator
from .logdomain import log1mexp, log_sum
from .measures import (FlatMeasure, Measure, modulus_report,
                       rho_hypothesis_violation)
from .sequences import LambdaSequence, classify, whole_number

EIG_CLAMP_FLOOR = -1e-10
FORWARD_ERROR_TOL = 1e-6  # largest cond(B) * 2^-53 a spectrum is solved at
PSI_TRUNCATION_FLAG = "psi-truncated-lower-estimate"
TAIL_UNSOUND_FLAG = "psi-tail-unsound"
DEFAULT_Q_SET = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class EmbeddingProblem:
    """A (sequence, measure, truncation) triple for the p = 2 embedding and
    its one analysis: the truncated sequence (which keeps B, W and psi), A
    (``gram``, read-only) and the modulus report of mu, each computed when
    first read."""

    sequence: LambdaSequence
    measure: Measure
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= len(self.sequence):
            raise InvalidParameterError(
                f"truncation {self.n} outside 1..{len(self.sequence)}")

    @cached_property
    def truncated(self) -> LambdaSequence:
        return self.sequence.truncate(self.n)

    @cached_property
    def gram(self) -> np.ndarray:
        return measure_gram(self.truncated, self.measure)

    @cached_property
    def modulus(self):
        return modulus_report(self.measure)


@dataclass(frozen=True)
class TrendPoint:
    n: int
    op_norm: float
    schatten: dict


@dataclass(frozen=True)
class SpectralReport:
    """Singular values, Schatten partial norms and convergence diagnostics."""

    singular_values: np.ndarray
    schatten: dict                      # q -> (sum s_i^q)^(1/q) at truncation n
    trend: tuple                        # TrendPoint at n/4, n/2, n
    decay_rate: float                   # lsq geometric decay fit of s_n, nan if rank < 3
    n: int
    cond_b: float                       # cond(B) of the truncated sequence

    @property
    def op_norm(self) -> float:
        return float(self.singular_values[0]) if self.singular_values.size else 0.0

    @property
    def rank(self) -> int:
        tol = self.op_norm * 1e-12
        return int(np.sum(self.singular_values > tol))


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Certificate:
    """A named upper bound with verified assumptions and soundness flags."""

    kind: str
    value: float                        # +inf encodes an inconclusive bound
    assumptions: tuple = ()
    flags: tuple = ()
    params: dict = field(default_factory=dict)

    @property
    def comparable(self) -> bool:
        return (math.isfinite(self.value)
                and all(a.ok for a in self.assumptions))


# ---------------------------------------------------------------------------
# Gramians and singular values
# ---------------------------------------------------------------------------

def measure_gram(seq: LambdaSequence, mu: Measure) -> np.ndarray:
    """mu-Gramian A_nm = sqrt(lambda_n lambda_m) * integral x**(l_n+l_m) dmu
    over the whole of ``seq``, read-only.

    One array of log moments over the upper triangle (the orders
    lambda_n + lambda_m are symmetric, indexed by ``seq.upper_triangle``),
    mirrored, materialized and then normalized in the linear domain; entries
    that underflow to zero are permitted, and entries past the double range
    read inf.
    """
    lam = seq.values
    root = np.sqrt(lam)
    rows, cols = seq.upper_triangle
    moments = np.empty((lam.size, lam.size))
    with np.errstate(over="ignore"):
        moments[rows, cols] = np.exp(mu.log_moments(lam[rows] + lam[cols]))
        moments[cols, rows] = moments[rows, cols]
        entries = np.outer(root, root) * moments
    entries.setflags(write=False)
    return entries


def _whiten(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W A W^T for the whitener W = L^-1 of B = L L^T, symmetrized."""
    m = w @ a @ w.T
    return 0.5 * (m + m.T)


def _pencil_singular_values(m: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of a whitened pencil, descending, or
    of each pencil of a stack, in one eigensolve.

    Eigenvalues in [EIG_CLAMP_FLOOR, 0) clamp to 0; anything below the floor
    (relative to max(1, the pencil's largest)) means broken
    assembly/quadrature and raises, and so does a non-finite entry, which
    numpy's eigensolver would not refuse.
    """
    if not np.all(np.isfinite(m)):
        raise NumericalSoundnessError(
            "the whitened pencil has a non-finite entry; the assembly is "
            "inconsistent")
    eigs = np.linalg.eigvalsh(m)
    floor = np.ravel(EIG_CLAMP_FLOOR
                     * np.maximum(1.0, eigs.max(axis=-1, initial=0.0)))
    low = np.ravel(eigs.min(axis=-1, initial=0.0))
    bad = np.flatnonzero(low < floor)
    if bad.size:
        i = bad[0]
        raise NumericalSoundnessError(
            f"generalized eigenvalue {low[i]:.3e} below the clamp floor "
            f"{floor[i]:.3e}; either the assembly is "
            "inconsistent or the basis is too ill-conditioned at this N")
    eigs = np.clip(eigs, 0.0, None)
    return np.sqrt(eigs)[..., ::-1]


def _whitened_gram(problem: EmbeddingProblem) -> np.ndarray:
    """W A W^T of the problem at its N, with the checked whitener.  A
    measure too heavy for it (the Gramian or its whitening past the double
    range) is refused by its mass, not read as an inconsistent assembly."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = _whiten(problem.gram, _checked_whitener(problem.truncated))
    if not np.all(np.isfinite(m)):
        raise NumericalSoundnessError(
            f"the measure's mass {problem.measure.total_mass:.6g} is beyond "
            "the double assembly: its whitened pencil has a non-finite "
            "entry; scale the measure down")
    return m


def _checked_whitener(seq: LambdaSequence) -> np.ndarray:
    """W of ``seq`` for a double spectrum, refused when the forward-error
    estimate cond(B) * 2^-53 exceeds FORWARD_ERROR_TOL."""
    if (estimate := seq.cond_b * 2.0 ** -53) > FORWARD_ERROR_TOL:
        raise IllConditionedBasisError(
            f"cond(B) = {seq.cond_b:.3g} at N={len(seq)}: forward-error "
            f"estimate {estimate:.3g} above {FORWARD_ERROR_TOL:g}; reduce N")
    return seq.whitener


def singular_values(a, seq: LambdaSequence) -> np.ndarray:
    """Singular values of the embedding pencil (A, B) with B the Lebesgue
    Gramian of ``seq``: sqrt of the eigenvalues of W A W^T."""
    return _pencil_singular_values(_whiten(a, _checked_whitener(seq)))


def _whitened_factor(flat: FlatMeasure, seq: LambdaSequence) -> np.ndarray:
    """X = F W^T for the atoms of ``flat``, with the checked whitener of
    ``seq`` and the K x N factor F_{kn} = sqrt(c_k) sqrt(lambda_n)
    a_k**lambda_n, so that A = F^T F and W A W^T = X^T X.  Row k is atom k,
    so a row block is the embedding of those atoms alone; W is lower
    triangular, so the column block :k is truncation k."""
    lam = seq.values
    log_f = (0.5 * flat.log_weights[:, None]
             + 0.5 * np.log(lam)[None, :]
             + np.outer(flat.log_positions, lam))
    return np.exp(log_f) @ _checked_whitener(seq).T


def _truncated_spectra(problem: EmbeddingProblem, sizes) -> list[np.ndarray]:
    """Singular values of i_mu at each truncation in ``sizes``, from the
    problem's assembly at N whitened by the truncated sequence's W; W is
    lower triangular, so truncation k is the leading block.
    Measures with a density part go through the (A, B) pencil.  Purely
    atomic ones go through the column blocks of :func:`_whitened_factor`,
    as svd(F W^T): rank-exact, since the values beyond the atom count are
    structural zeros, not sqrt-amplified eigenvalue noise.
    """
    flat = problem.measure.flattened()
    if flat.has_density:
        m = _whitened_gram(problem)
        return [_pencil_singular_values(m[:k, :k]) for k in sizes]
    x = _whitened_factor(flat, problem.truncated)
    spectra = []
    for k in sizes:
        svals = np.linalg.svd(x[:, :k], compute_uv=False)
        padded = np.zeros(k)
        padded[:svals.size] = svals
        spectra.append(padded)
    return spectra


def _schatten_table(svals: np.ndarray, q_set) -> dict:
    """q -> (sum s_i^q)^(1/q), computed as s_1 (sum (s_i/s_1)^q)^(1/q) in the
    log domain, so that no power of a singular value leaves the double range;
    a value beyond it reads inf."""
    top = float(svals.max(initial=0.0))
    table = {}
    for q in q_set:
        if not q > 0.0:
            raise InvalidParameterError(
                f"Schatten exponent {q!r} must be positive (inf for the "
                "operator norm)")
        log_value = (math.log(top) + math.log(np.sum((svals / top) ** q)) / q
                     if top > 0.0 else -math.inf)
        with np.errstate(over="ignore"):
            table[float(q)] = float(np.exp(log_value))
    return table


def _decay_rate(svals: np.ndarray) -> float:
    top = svals[0] if svals.size else 0.0
    mask = svals > max(top * 1e-14, 0.0)
    if mask.sum() < 3:
        return math.nan
    # least-squares slope of log s_n against n, in closed form
    dn = np.flatnonzero(mask) + 1.0
    dn -= dn.mean()
    log_s = np.log(svals[mask])
    return float(math.exp(np.dot(dn, log_s - log_s.mean()) / np.dot(dn, dn)))


def analyze(problem: EmbeddingProblem, q_set=DEFAULT_Q_SET) -> SpectralReport:
    """Solve the problem's pencil, fill the Schatten table and the N-trend
    diagnostics (truncations n/4, n/2, n, read as leading blocks)."""
    n = problem.n
    sizes = sorted({max(1, n // 4), max(1, n // 2), n})
    spectra = _truncated_spectra(problem, sizes)
    trend = tuple(TrendPoint(n=k, op_norm=float(svals[0]),
                             schatten=_schatten_table(svals, q_set))
                  for k, svals in zip(sizes, spectra))
    svals_full = spectra[-1]
    svals_full.setflags(write=False)
    return SpectralReport(singular_values=svals_full,
                          schatten=trend[-1].schatten,
                          trend=trend,
                          decay_rate=_decay_rate(svals_full),
                          n=n, cond_b=problem.truncated.cond_b)


def tail_orders(m_list) -> list[int]:
    """``m_list`` as ints, refused unless they are increasing integers >= 2."""
    try:
        whole = [whole_number(m) for m in m_list]
        valid = all(m >= 2 for m in whole) and sorted(whole) == whole
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InvalidParameterError(
            f"m_list {m_list} must be increasing integers >= 2")
    return whole


def essential_norm_trend(seq: LambdaSequence, mu: Measure, n: int,
                         m_list) -> list[tuple[int, float]]:
    """Norms of the tail-restricted embeddings i_{mu'_m}, mu'_m the
    restriction of mu to [1 - 1/m, 1], at truncation n.

    The essential norm is their limit in m; only this trend is reported,
    never an extrapolated value.  For a measure without a density part,
    mu'_m is the atoms with 1 - a_k = -expm1(log a_k) <= 1/m, the rule of
    :meth:`Measure.restricted_to_tail`, so its norm is the top singular
    value of those rows of the one :func:`_whitened_factor` of
    ``seq.truncate(n)`` (0 for no rows).  A measure with a density part
    assembles the pencil of each restricted measure, whitened by that same
    W, and solves them all in one stacked eigensolve; a restriction without
    a density part keeps the factored route.
    """
    whole = tail_orders(m_list)
    sub = seq.truncate(n)
    flat = mu.flattened()
    if flat.has_density:
        norms, pencils, at = {}, [], []
        for m in whole:
            tail = EmbeddingProblem(sub, mu.restricted_to_tail(1.0 / m), n)
            if tail.measure.flattened().has_density:
                pencils.append(_whitened_gram(tail))
                at.append(m)
            else:
                norms[m] = float(_truncated_spectra(tail, (n,))[0][0])
        if pencils:
            tops = _pencil_singular_values(np.stack(pencils))[:, 0]
            norms.update(zip(at, tops.tolist()))
        return [(m, norms[m]) for m in whole]
    x = _whitened_factor(flat, sub)
    entry = -np.expm1(flat.log_positions)
    return [(m, float(np.linalg.svd(x[entry <= 1.0 / m], compute_uv=False)
                      .max(initial=0.0)))
            for m in whole]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

UNSOUND_CONTRIBUTION_RTOL = 1e-9


def _exp_or_inf(log_value: float) -> float:
    """exp(log_value), +inf beyond the double range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _psi_squared_integral(mu: Measure, psi: PsiEvaluator,
                          big: bool = False) -> tuple[float, bool]:
    """integral of psi(x)^2 dmu (or Psi^2 when ``big``) plus an aggregate
    tail-soundness verdict.

    Both read the majorant from :meth:`PsiEvaluator.log_majorant`.  Atomic
    parts are one log-domain sum over the atoms.  Density parts integrate in
    t = 1 - x with dyadic refinement toward 1.  The result is flagged
    unsound when the region where the truncated majorant has a
    non-negligible last term, t < t*, contributes more than a 1e-9 fraction
    of the integral (the truncated value is exact either way; the flag marks
    that it may under-estimate the infinite-sequence certificate).  For the
    atoms that contribution is the sum over the tail-unsound ones.  On a
    piece reaching t = 0 it is read from the cells of the piece's integral;
    a piece starting above 0 integrates it separately.
    """
    flat = mu.flattened()
    total = 0.0
    unsound_part = 0.0

    if flat.has_atoms:
        log_values, sound = psi.log_majorant(flat.log_positions, big)
        log_terms = flat.log_weights + 2.0 * log_values
        total += _exp_or_inf(log_sum(log_terms))
        if not np.all(sound):
            unsound_part += _exp_or_inf(log_sum(log_terms[~sound]))

    if flat.has_density:
        t_star = psi.big_unsound_width if big else psi.unsound_width
        for t_lo, t_hi, h in flat.pieces:
            def integrand(t, h=h):
                t = np.asarray(t, dtype=float)
                return psi.squared_majorant(t, big) * h(t)
            cut = min(t_star, t_hi)
            # an integrand past the double range reads inf, and NaN where
            # the density underflows to 0; either leaves the total non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                if t_lo == 0.0:
                    nodes, squares = psi.refined_head(t_hi, big)
                    v, _, u = quadrature.integrate_refined_at_zero(
                        integrand, t_hi, cut=cut, head=squares * h(nodes))
                else:
                    v, _ = quadrature.integrate(integrand, t_lo, t_hi)
                    u = 0.0
                    if cut > t_lo:
                        u, _ = quadrature.integrate(integrand, t_lo, cut)
            total += v
            unsound_part += u

    if not math.isfinite(total):
        return math.inf, False
    # a non-finite unsound part (an overflowing majorant) fails this
    sound = unsound_part <= UNSOUND_CONTRIBUTION_RTOL * max(total, 1e-300)
    return total, sound


def _majorant_certificate(kind: str, nu: Measure, psi: PsiEvaluator,
                          params: dict, *, big: bool = False, integrable=None,
                          assumptions: tuple = (), flags: tuple = ()):
    """(integral psi^2 dnu)^(1/2), or the integral of Psi^2 when ``big``, as a
    certificate.  ``integrable`` = (name, detail format) records that the
    integral is finite; an unsound integral, exact but possibly below the
    infinite-sequence certificate, adds the tail-unsound flag."""
    integral, sound = _psi_squared_integral(nu, psi, big)
    if integrable:
        assumptions += (AssumptionCheck(integrable[0], math.isfinite(integral),
                                        integrable[1].format(integral)),)
    flags = (PSI_TRUNCATION_FLAG, *flags) + (() if sound else (TAIL_UNSOUND_FLAG,))
    return Certificate(kind=kind, value=integral if big else math.sqrt(integral),
                       assumptions=assumptions, flags=flags, params=params)


def psi_certificate(seq: LambdaSequence, mu: Measure) -> Certificate:
    """Upper bound ||i_mu|| <= ||psi||_{L^2(mu)} at this truncation.

    The truncated psi is a lower estimate of the infinite majorant, so the
    value always carries the truncation flag.  When the region where the
    truncated majorant is tail-unsound contributes more than
    UNSOUND_CONTRIBUTION_RTOL of the integral, the value stays the exact
    truncated one and is flagged ``psi-tail-unsound``: it may under-estimate
    the infinite-sequence certificate.
    """
    return _majorant_certificate(
        "psi", mu, seq.psi, {"n_seq": len(seq)},
        integrable=("psi-square-integrable", "integral = {:.6g}"))


def rho_certificate(seq: LambdaSequence, mu: Measure,
                    majorant: Measure) -> Certificate:
    """Upper bound from a tail majorant: value = (integral_0^1 psi(x)^2
    rho'(1-x) dx)^(1/2), valid when mu(J_eps) <= rho(eps) on the eps-grid
    and where each atom of mu enters J_eps.

    ``majorant`` is the measure nu = rho'(1-x) dx, with nu(J_eps) = rho(eps)
    (``PowerTailMeasure(C, alpha)`` for rho(eps) = C*eps**alpha), so the
    value and the flags are those of the psi certificate of nu.  A violated
    hypothesis gives +inf.
    """
    bad = rho_hypothesis_violation(mu, majorant)
    assumptions = (AssumptionCheck(
        "mu(J_eps) <= rho(eps)", bad is None,
        "" if bad is None else
        f"violated at eps={bad[0]:.3g}: {bad[1]:.6g} > {bad[2]:.6g}"),)
    params = {"rho": majorant.to_config()}
    if bad is not None:
        return Certificate(kind="rho", value=math.inf, assumptions=assumptions,
                           flags=(PSI_TRUNCATION_FLAG,), params=params)
    return _majorant_certificate("rho", majorant, seq.psi, params,
                                 assumptions=assumptions)


def check_compact_support(b: float, b_prime: float, k: int) -> None:
    """Refuse compact-support parameters outside 0 < b < b' < 1 and
    1 <= k <= PSI_K_MAX."""
    if not 0.0 < b < b_prime < 1.0:
        raise InvalidParameterError("need 0 < b < b' < 1")
    if not 1 <= k <= PSI_K_MAX:
        raise InvalidParameterError(f"k must lie in 1..{PSI_K_MAX}")


def compact_support_certificate(seq: LambdaSequence, mu: Measure, b: float,
                                b_prime: float, k: int) -> Certificate:
    """Schatten bound for compactly supported measures:

    ||i_mu||_{2/k} <= 2^(-k/2) b'^(-1/2) psi^(k)(b') psi(b/b') sqrt(||mu||),
    requiring supp mu inside [0, b] and b < b' < 1.
    """
    check_compact_support(b, b_prime, k)
    leak = mu.mass_above(b)
    assumptions = [AssumptionCheck(
        "supp mu inside [0, b]", leak == 0.0,
        "" if leak == 0.0 else f"mass {leak:.6g} above b={b:g}")]
    if leak > 0.0:
        return Certificate(kind=f"compact_support_{k}", value=math.inf,
                           assumptions=tuple(assumptions),
                           flags=(PSI_TRUNCATION_FLAG,),
                           params={"b": b, "b_prime": b_prime, "k": k})
    deriv, plain = seq.psi.eval(b_prime, k), seq.psi.eval(b / b_prime, 0)
    value = (2.0 ** (-0.5 * k) / math.sqrt(b_prime)
             * deriv.value * plain.value * math.sqrt(mu.total_mass))
    flags = [PSI_TRUNCATION_FLAG]
    if not (deriv.tail_sound and plain.tail_sound):
        flags.append(TAIL_UNSOUND_FLAG)
    if len(seq) <= k:
        # psi^(k) of a truncation with too few terms can vanish identically
        flags.append("derivative-order-exceeds-truncation")
    return Certificate(kind=f"compact_support_{k}", value=value,
                       assumptions=tuple(assumptions), flags=tuple(flags),
                       params={"b": b, "b_prime": b_prime, "k": k,
                               "schatten_index": 2.0 / k})


def hilbert_schmidt_certificate(seq: LambdaSequence, mu: Measure) -> Certificate:
    """Finiteness of integral Psi^2 dmu implies i_mu is Hilbert-Schmidt.

    The theorem's constant is unspecified, so the certificate asserts only
    FINITENESS => S_2 membership; the value is the integral itself, never a
    numeric S_2 bound.  Also reports the dyadic-root partition masses
    b_0 = 0, b_1 = 1/2, b_{j+1} = sqrt(b_j), as differences of tail masses;
    where a tail mass is past the double range, from its log instead, so a
    mass reads inf only when it is itself past that range.
    """
    # edges up to the first within 1e-12 of 1, at most 64 partitions
    edges = [0.0, 0.5]
    while len(edges) <= 64 and 1.0 - edges[-1] > 1e-12:
        edges.append(math.sqrt(edges[-1]))
    eps = 1.0 - np.array(edges)
    tail = mu.tail_mass(eps)                            # mu([b_j, 1])
    with np.errstate(invalid="ignore"):
        masses = tail[:-1] - tail[1:]
    past = np.flatnonzero(np.isinf(tail[:-1]))
    if past.size:
        log_tail = mu.log_tail_mass(eps)
        top, rest = log_tail[past], log_tail[past + 1]
        with np.errstate(over="ignore"):
            masses[past] = np.exp(top + log1mexp(rest - top))
    partitions = list(zip(edges[:-1], edges[1:], masses.tolist()))
    return _majorant_certificate(
        "hilbert_schmidt_psi", mu, seq.psi, {"partition_masses": partitions},
        big=True, integrable=("Psi-square-integrable", "integral {:.6g}"),
        flags=("finiteness-only-no-numeric-s2-bound",))


def sublinear_embedding_bound(problem: EmbeddingProblem) -> Certificate:
    """Rigorous-at-truncation norm bound for lacunary Lambda and sublinear mu.

    Records the entrywise majorization A_nm <= ||mu||_S * B_nm, with A, B
    and ||mu||_S read from the problem, as an assumption whose detail names
    the worst entry, and, when it holds, emits
    value = (||mu||_S * ||B|| * ||B^-1||)^(1/2): for entrywise-dominated PSD
    pencils the Rayleigh quotient is at most ||mu||_S * cond(B).  When it
    fails, ||mu||_S was an under-estimate (re-estimate it on a finer grid)
    and the value is +inf.
    """
    report = classify(problem.truncated)
    lacunary_ok = (not report.degenerate) and report.min_ratio > 1.0
    mod = problem.modulus
    s_norm = mod.sublinear_norm
    assumptions = [
        AssumptionCheck("Lambda lacunary", lacunary_ok,
                        f"min ratio {report.min_ratio:.6g}"),
        AssumptionCheck("mu sublinear", math.isfinite(s_norm),
                        f"||mu||_S = {s_norm:.6g}"
                        + ("" if mod.sup_is_exact else " (grid lower estimate)")),
    ]
    if not (lacunary_ok and math.isfinite(s_norm)):
        return Certificate(kind="sublinear", value=math.inf,
                           assumptions=tuple(assumptions))
    a, b = problem.gram, problem.truncated.lebesgue_gram
    excess = a - s_norm * b - 1e-12 * (1.0 + s_norm * np.abs(b))
    i, j = np.unravel_index(np.argmax(excess), excess.shape)
    majorized = not excess[i, j] > 0.0
    assumptions.append(AssumptionCheck(
        "A <= ||mu||_S B entrywise", majorized,
        f"worst entry ({i + 1},{j + 1}): A={a[i, j]:.6g}, "
        f"||mu||_S*B={s_norm * b[i, j]:.6g}"))
    cond = problem.truncated.cond_b
    flags = () if mod.sup_is_exact else ("sublinear-norm-grid-estimate",)
    return Certificate(kind="sublinear",
                       value=math.sqrt(s_norm * cond) if majorized else math.inf,
                       assumptions=tuple(assumptions), flags=flags,
                       params={"sublinear_norm": s_norm, "cond_b": cond,
                               "max_entry_ratio": float(np.max(
                                   a / np.maximum(s_norm * b, 1e-300)))})


@dataclass(frozen=True)
class RieszCheck:
    offdiag_hs: float
    invertible: bool
    min_eigenvalue: float


def riesz_sequence_check(gram) -> RieszCheck:
    """Invertibility check of a unit-diagonal Gramian.

    offdiag_hs < 1 is the sufficient Hilbert-Schmidt criterion; otherwise
    the minimal eigenvalue decides.
    """
    g = np.asarray(gram, dtype=float)
    if not np.all(np.isfinite(g)):
        raise InvalidParameterError("Gramian entries must be finite")
    if np.max(np.abs(np.diag(g) - 1.0)) > 1e-8:
        raise InvalidParameterError("Gramian must have unit diagonal "
                                    "(normalize the vectors first)")
    off = g - np.diag(np.diag(g))
    offdiag_hs = float(np.sqrt(np.sum(off ** 2)))
    min_eig = float(np.linalg.eigvalsh(g)[0])
    invertible = offdiag_hs < 1.0 or min_eig > 0.0
    return RieszCheck(offdiag_hs=offdiag_hs, invertible=invertible,
                      min_eigenvalue=min_eig)
