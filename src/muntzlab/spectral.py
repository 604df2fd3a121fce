"""Spectral analysis of the truncated embedding operator and its certificates.

The embedding i_mu : M^2_Lambda -> L^2(mu), truncated to the span of the
first N normalized monomials g_n = lambda_n^(1/2) x^lambda_n, has singular
values equal to the square roots of the generalized eigenvalues of the
pencil (A, B), where A is the mu-Gramian and B the Lebesgue Gramian of the
g_n.  B is whitened by Cholesky; a failed factorization raises instead of
regularizing (reduce N).  One analysis assembles
A and factors B once at N and reads smaller truncations as leading blocks.

Certificates are named upper bounds from the majorant function psi, from a
rho-majorization of the tail modulus, from compact support, and from
entrywise Gramian domination for sublinear measures.  The rho majorant is a
measure nu with nu(J_eps) = rho(eps), so the psi and rho certificates share
one integral of psi^2 against a measure.  A certificate is
COMPARABLE (usable as a bound at this truncation) only when all of its
recorded assumptions verified; soundness flags mark psi-truncation caveats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import quadrature
from .errors import (IllConditionedBasisError, InvalidParameterError,
                     NumericalSoundnessError, SublinearEstimateError)
from .geometry import GramMatrix, PsiEvaluator, lebesgue_gram
from .logdomain import log_sum
from .measures import Measure, modulus_report, rho_hypothesis_violation
from .sequences import LambdaSequence, classify

EIG_CLAMP_FLOOR = -1e-10
PSI_TRUNCATION_FLAG = "psi-truncated-lower-estimate"
TAIL_UNSOUND_FLAG = "psi-tail-unsound"
DEFAULT_Q_SET = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class EmbeddingProblem:
    """A (sequence, measure, truncation) triple for the p = 2 embedding."""

    sequence: LambdaSequence
    measure: Measure
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= len(self.sequence):
            raise InvalidParameterError(
                f"truncation {self.n} outside 1..{len(self.sequence)}")


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

def measure_gram(seq: LambdaSequence, mu: Measure, n: int | None = None) -> GramMatrix:
    """mu-Gramian A_nm = sqrt(lambda_n lambda_m) * integral x**(l_n+l_m) dmu.

    One array of log moments over the upper triangle (the orders
    lambda_n + lambda_m are symmetric), mirrored, materialized and then
    normalized in the linear domain; entries that underflow to zero are
    permitted.
    """
    n = len(seq) if n is None else n
    lam = seq.truncate(n).values
    root = np.sqrt(lam)
    rows, cols = np.triu_indices(lam.size)
    moments = np.empty((lam.size, lam.size))
    moments[rows, cols] = np.exp(mu.log_moments(lam[rows] + lam[cols]))
    moments[cols, rows] = moments[rows, cols]
    return GramMatrix(np.outer(root, root) * moments, basis="normalized",
                      measure="mu")


def _as_array(gram) -> np.ndarray:
    return gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, float)


def _cholesky_lower(b: np.ndarray) -> np.ndarray:
    try:
        return scipy.linalg.cholesky(b, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditionedBasisError(
            "Cholesky of the Lebesgue Gramian failed; the truncated basis is "
            "numerically dependent in double precision; reduce N.") from exc


def _whiten(a: np.ndarray, low: np.ndarray) -> np.ndarray:
    """L^-1 A L^-T for B = L L^T, symmetrized."""
    w = scipy.linalg.solve_triangular(low, a, lower=True)
    m = scipy.linalg.solve_triangular(low, w.T, lower=True)
    return 0.5 * (m + m.T)


def _pencil_singular_values(m: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of a whitened pencil, descending.

    Eigenvalues in [EIG_CLAMP_FLOOR, 0) clamp to 0; anything below the floor
    means broken assembly/quadrature and raises.
    """
    eigs = scipy.linalg.eigvalsh(m)
    scale = max(1.0, float(eigs.max(initial=0.0)))
    if eigs.min(initial=0.0) < EIG_CLAMP_FLOOR * scale:
        raise NumericalSoundnessError(
            f"generalized eigenvalue {eigs.min():.3e} below the clamp floor "
            f"{EIG_CLAMP_FLOOR * scale:.3e}; either the assembly is "
            "inconsistent or the basis is too ill-conditioned at this N")
    eigs = np.clip(eigs, 0.0, None)
    return np.sqrt(eigs)[::-1]


def singular_values(a, b) -> np.ndarray:
    """Singular values of the embedding pencil: sqrt of eigenvalues of
    B^(-1/2) A B^(-1/2), via Cholesky whitening of B."""
    return _pencil_singular_values(
        _whiten(_as_array(a), _cholesky_lower(_as_array(b))))


def _truncated_spectra(seq: LambdaSequence, mu: Measure, low: np.ndarray,
                       sizes) -> list[np.ndarray]:
    """Singular values of i_mu at each truncation in ``sizes``, from one
    assembly at N = low.shape[0] whitened by the Cholesky factor ``low`` of
    the Lebesgue Gramian; whitening is triangular, so truncation k is the
    leading block.  Measures with a density part go through the (A, B)
    pencil.  Purely atomic ones go through the K x N factor
    F_{kn} = sqrt(c_k) sqrt(lambda_n) a_k**lambda_n (A = F^T F) as
    svd(F L^-T): rank-exact, since the values beyond the atom count are
    structural zeros, not sqrt-amplified eigenvalue noise.
    """
    n = low.shape[0]
    flat = mu.flattened()
    if flat.has_density:
        m = _whiten(measure_gram(seq, mu, n).entries, low)
        return [_pencil_singular_values(m[:k, :k]) for k in sizes]
    lam = seq.truncate(n).values
    log_f = (0.5 * flat.log_weights[:, None]
             + 0.5 * np.log(lam)[None, :]
             + np.outer(flat.log_positions, lam))
    x = scipy.linalg.solve_triangular(low, np.exp(log_f).T, lower=True).T
    spectra = []
    for k in sizes:
        svals = scipy.linalg.svd(x[:, :k], compute_uv=False)
        spectra.append(np.pad(svals, (0, k - svals.size)))
    return spectra


def _schatten_table(svals: np.ndarray, q_set) -> dict:
    """q -> (sum s_i^q)^(1/q), computed as s_1 (sum (s_i/s_1)^q)^(1/q) in the
    log domain, so that no power of a singular value leaves the double range;
    a value beyond it reads inf."""
    top = float(svals.max(initial=0.0))
    table = {}
    for q in q_set:
        if q <= 0.0:
            raise InvalidParameterError("Schatten exponents must be positive")
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
    """Assemble the Gramians and factor the Lebesgue Gramian once at N, solve
    the pencil, fill the Schatten table and the N-trend diagnostics
    (truncations n/4, n/2, n, read as leading blocks)."""
    n = problem.n
    sizes = sorted({max(1, n // 4), max(1, n // 2), n})
    seq = problem.sequence.truncate(n)
    spectra = _truncated_spectra(seq, problem.measure,
                                 _cholesky_lower(lebesgue_gram(seq).entries),
                                 sizes)
    trend = tuple(TrendPoint(n=k, op_norm=float(svals[0]),
                             schatten=_schatten_table(svals, q_set))
                  for k, svals in zip(sizes, spectra))
    svals_full = spectra[-1]
    svals_full.setflags(write=False)
    return SpectralReport(singular_values=svals_full,
                          schatten=trend[-1].schatten,
                          trend=trend,
                          decay_rate=_decay_rate(svals_full),
                          n=n)


def essential_norm_trend(seq: LambdaSequence, mu: Measure, n: int,
                         m_list) -> list[tuple[int, float]]:
    """Norms of the tail-restricted embeddings i_{mu'_m}.

    The essential norm is their limit in m; only this trend is reported,
    never an extrapolated value.
    """
    m_list = [int(m) for m in m_list]
    if any(m < 2 for m in m_list) or sorted(m_list) != m_list:
        raise InvalidParameterError("m_list must be increasing integers >= 2")
    sub = seq.truncate(n)
    low = _cholesky_lower(lebesgue_gram(sub).entries)
    out = []
    for m in m_list:
        svals, = _truncated_spectra(sub, mu.restricted_to_tail(1.0 / m), low, (n,))
        out.append((m, float(svals[0])))
    return out


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

UNSOUND_CONTRIBUTION_RTOL = 1e-9


def _squared_majorant_logs(psi: PsiEvaluator, log_x: float,
                           transform) -> tuple[float, bool]:
    """(log of psi(x)^2 resp. Psi(x)^2, tail_sound) at a single log x."""
    if transform == "big":
        quarter = 0.25 * log_x
        l1, _, s1 = psi.log_eval(quarter, 1)
        l0, _, s0 = psi.log_eval(quarter, 0)
        return 2.0 * (l1 + l0), s1 and s0
    la, _, snd = psi.log_eval(log_x, 0)
    return 2.0 * la, snd


def _unsound_tail_width(psi: PsiEvaluator, transform) -> float:
    """Width t* such that the majorant is tail-unsound for 1-x < t*.

    The probes are the dyadic t = 2^-j, j = 0..1074 (t = 1 taken as 1 - 1e-16).
    The last-term ratio is monotone in x, so the unsound probes are a final
    run of j; bisection finds its first j, and t* = min(2^(1-j), 1).  0 means
    sound at every probe.  A probe whose x rounds to 1 (under the big
    transform's quarter power, from t = 2^-1073 on) counts as unsound.
    """
    def unsound(j: int) -> bool:
        log_x = math.log1p(-min(2.0 ** -j, 1.0 - 1e-16))
        if (0.25 * log_x if transform == "big" else log_x) == 0.0:
            return True
        return not _squared_majorant_logs(psi, log_x, transform)[1]

    sound, first_unsound = -1, 1075          # bracket of virtual probes
    while first_unsound - sound > 1:
        j = (sound + first_unsound) // 2
        if unsound(j):
            first_unsound = j
        else:
            sound = j
    return 0.0 if first_unsound == 1075 else min(2.0 ** (1 - first_unsound), 1.0)


def _psi_squared_integral(mu: Measure, psi: PsiEvaluator,
                          transform=None) -> tuple[float, bool]:
    """integral of psi(x)^2 dmu (or Psi^2 with transform='big') plus an
    aggregate tail-soundness verdict.

    Atomic parts are exact log-domain sums.  Density parts integrate in
    t = 1 - x with dyadic refinement toward 1.  The result is flagged
    unsound when the region where the truncated majorant has a
    non-negligible last term, t < t*, contributes more than a 1e-9 fraction
    of the integral (the truncated value is exact either way; the flag marks
    that it may under-estimate the infinite-sequence certificate).  On a
    piece reaching t = 0 that contribution is read from the cells of the
    piece's integral; a piece starting above 0 integrates it separately.
    """
    flat = mu.flattened()
    total = 0.0
    unsound_part = 0.0

    if flat.has_atoms:
        log_terms = []
        unsound_logs = []
        for log_a, log_c in zip(flat.log_positions, flat.log_weights):
            log_sq, snd = _squared_majorant_logs(psi, log_a, transform)
            log_terms.append(log_c + log_sq)
            if not snd:
                unsound_logs.append(log_c + log_sq)
        total += math.exp(log_sum(log_terms))
        if unsound_logs:
            unsound_part += math.exp(log_sum(unsound_logs))

    if flat.has_density:
        t_star = _unsound_tail_width(psi, transform)

        def values(t):
            t = np.asarray(t, dtype=float)
            log_x = np.log1p(-t)
            if transform == "big":
                (d1, d0), _ = psi.eval_many(0.25 * log_x, (1, 0))
                return (d1 * d0) ** 2
            vals, _ = psi.eval_many(log_x, 0)
            return vals ** 2

        for t_lo, t_hi, h, _singular in flat.pieces:
            def integrand(t, h=h):
                return values(t) * h(np.asarray(t, dtype=float))
            cut = min(t_star, t_hi)
            if t_lo == 0.0:
                v, _, u = quadrature.integrate_refined_at_zero(integrand, t_hi,
                                                               cut=cut)
            else:
                v, _ = quadrature.integrate(integrand, t_lo, t_hi)
                u = 0.0
                if cut > t_lo:
                    u, _ = quadrature.integrate(integrand, t_lo, cut)
            total += v
            unsound_part += u

    if not math.isfinite(total):
        return math.inf, False
    sound = unsound_part <= UNSOUND_CONTRIBUTION_RTOL * max(total, 1e-300)
    return total, sound


def psi_certificate(seq: LambdaSequence, mu: Measure,
                    psi: PsiEvaluator | None = None) -> Certificate:
    """Upper bound ||i_mu|| <= ||psi||_{L^2(mu)} at this truncation.

    The truncated psi is a lower estimate of the infinite majorant, so the
    value always carries the truncation flag.  When the region where the
    truncated majorant is tail-unsound contributes more than
    UNSOUND_CONTRIBUTION_RTOL of the integral, the value stays the exact
    truncated one and is flagged ``psi-tail-unsound``: it may under-estimate
    the infinite-sequence certificate.
    """
    psi = PsiEvaluator.from_sequence(seq) if psi is None else psi
    integral, sound = _psi_squared_integral(mu, psi)
    flags = [PSI_TRUNCATION_FLAG]
    assumptions = [AssumptionCheck("psi-square-integrable",
                                   math.isfinite(integral),
                                   f"integral = {integral:.6g}")]
    value = math.sqrt(integral) if math.isfinite(integral) else math.inf
    if not sound:
        # still exact (hence a valid bound) at this truncation, but it may
        # under-estimate the infinite-sequence certificate
        flags.append(TAIL_UNSOUND_FLAG)
    return Certificate(kind="psi", value=value,
                       assumptions=tuple(assumptions), flags=tuple(flags),
                       params={"n_seq": psi.n_seq})


def rho_certificate(seq: LambdaSequence, mu: Measure, majorant: Measure,
                    psi: PsiEvaluator | None = None) -> Certificate:
    """Upper bound from a tail majorant: value = (integral_0^1 psi(x)^2
    rho'(1-x) dx)^(1/2), valid when mu(J_eps) <= rho(eps) on the eps-grid
    and where each atom of mu enters J_eps.

    ``majorant`` is the measure nu = rho'(1-x) dx, with nu(J_eps) = rho(eps)
    (``PowerTailMeasure(C, alpha)`` for rho(eps) = C*eps**alpha), so the
    value and the tail-unsound verdict are those of the psi certificate of
    nu.  A violated hypothesis gives +inf.
    """
    psi = PsiEvaluator.from_sequence(seq) if psi is None else psi
    bad = rho_hypothesis_violation(mu, majorant)
    assumptions = (AssumptionCheck(
        "mu(J_eps) <= rho(eps)", bad is None,
        "" if bad is None else
        f"violated at eps={bad[0]:.3g}: {bad[1]:.6g} > {bad[2]:.6g}"),)
    params = {"rho": majorant.to_config()}
    if bad is not None:
        return Certificate(kind="rho", value=math.inf, assumptions=assumptions,
                           flags=(PSI_TRUNCATION_FLAG,), params=params)
    integral, sound = _psi_squared_integral(majorant, psi)
    flags = [PSI_TRUNCATION_FLAG]
    value = math.sqrt(integral) if math.isfinite(integral) else math.inf
    if not sound:
        flags.append(TAIL_UNSOUND_FLAG)
    return Certificate(kind="rho", value=value, assumptions=assumptions,
                       flags=tuple(flags), params=params)


def compact_support_certificate(seq: LambdaSequence, mu: Measure, b: float,
                                b_prime: float, k: int,
                                psi: PsiEvaluator | None = None) -> Certificate:
    """Schatten bound for compactly supported measures:

    ||i_mu||_{2/k} <= 2^(-k/2) b'^(-1/2) psi^(k)(b') psi(b/b') sqrt(||mu||),
    requiring supp mu inside [0, b] and b < b' < 1.
    """
    psi = PsiEvaluator.from_sequence(seq) if psi is None else psi
    if not 0.0 < b < b_prime < 1.0:
        raise InvalidParameterError("need 0 < b < b' < 1")
    if not 1 <= k <= psi.k_max:
        raise InvalidParameterError(f"k must lie in 1..{psi.k_max}")
    leak = mu.mass_above(b)
    assumptions = [AssumptionCheck(
        "supp mu inside [0, b]", leak == 0.0,
        "" if leak == 0.0 else f"mass {leak:.6g} above b={b:g}")]
    if leak > 0.0:
        return Certificate(kind=f"compact_support_{k}", value=math.inf,
                           assumptions=tuple(assumptions),
                           flags=(PSI_TRUNCATION_FLAG,),
                           params={"b": b, "b_prime": b_prime, "k": k})
    deriv = psi.eval(b_prime, k)
    plain = psi.eval(b / b_prime, 0)
    value = (2.0 ** (-0.5 * k) / math.sqrt(b_prime)
             * deriv.value * plain.value * math.sqrt(mu.total_mass))
    flags = [PSI_TRUNCATION_FLAG]
    if not (deriv.tail_sound and plain.tail_sound):
        flags.append(TAIL_UNSOUND_FLAG)
    if psi.n_seq <= k:
        # psi^(k) of a truncation with too few terms can vanish identically
        flags.append("derivative-order-exceeds-truncation")
    return Certificate(kind=f"compact_support_{k}", value=value,
                       assumptions=tuple(assumptions), flags=tuple(flags),
                       params={"b": b, "b_prime": b_prime, "k": k,
                               "schatten_index": 2.0 / k})


def hilbert_schmidt_certificate(seq: LambdaSequence, mu: Measure,
                                psi: PsiEvaluator | None = None) -> Certificate:
    """Finiteness of integral Psi^2 dmu implies i_mu is Hilbert-Schmidt.

    The theorem's constant is unspecified, so the certificate asserts only
    FINITENESS => S_2 membership; the value is the integral itself, never a
    numeric S_2 bound.  Also reports the dyadic-root partition masses
    b_0 = 0, b_1 = 1/2, b_{j+1} = sqrt(b_j).
    """
    psi = PsiEvaluator.from_sequence(seq) if psi is None else psi
    integral, sound = _psi_squared_integral(mu, psi, transform="big")
    # edges up to the first within 1e-12 of 1, at most 64 partitions
    edges = [0.0, 0.5]
    while len(edges) <= 64 and 1.0 - edges[-1] > 1e-12:
        edges.append(math.sqrt(edges[-1]))
    above = mu.tail_mass(1.0 - np.array(edges[1:]))     # mu([b_{j+1}, 1])
    masses = np.append(mu.total_mass, above[:-1]) - above
    partitions = list(zip(edges[:-1], edges[1:], masses.tolist()))
    flags = [PSI_TRUNCATION_FLAG, "finiteness-only-no-numeric-s2-bound"]
    assumptions = [AssumptionCheck("Psi-square-integrable",
                                   math.isfinite(integral),
                                   f"integral {integral:.6g}")]
    if not sound:
        flags.append(TAIL_UNSOUND_FLAG)
    return Certificate(kind="hilbert_schmidt_psi", value=integral,
                       assumptions=tuple(assumptions), flags=tuple(flags),
                       params={"partition_masses": partitions})


def sublinear_embedding_bound(seq: LambdaSequence, mu: Measure,
                              n: int) -> Certificate:
    """Rigorous-at-truncation norm bound for lacunary Lambda and sublinear mu.

    Verifies the entrywise majorization A_nm <= ||mu||_S * B_nm and, on
    success, emits value = (||mu||_S * ||B|| * ||B^-1||)^(1/2): for
    entrywise-dominated PSD pencils the Rayleigh quotient is at most
    ||mu||_S * cond(B).
    """
    report = classify(seq.truncate(n))
    lacunary_ok = (not report.degenerate) and report.min_ratio > 1.0
    mod = modulus_report(mu)
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
    a = measure_gram(seq, mu, n).entries
    b = lebesgue_gram(seq.truncate(n)).entries
    gap = a - s_norm * b
    tol = 1e-12 * (1.0 + s_norm * np.abs(b))
    if np.any(gap > tol):
        i, j = np.unravel_index(np.argmax(gap - tol), gap.shape)
        raise SublinearEstimateError(
            f"entrywise majorization fails at ({i + 1},{j + 1}): "
            f"A={a[i, j]:.6g} > ||mu||_S*B={s_norm * b[i, j]:.6g}; the "
            "sublinear norm was an under-estimate, re-estimate on a finer grid")
    eigs = scipy.linalg.eigvalsh(b)
    cond = float(eigs[-1] / eigs[0])
    value = math.sqrt(s_norm * cond)
    flags = () if mod.sup_is_exact else ("sublinear-norm-grid-estimate",)
    return Certificate(kind="sublinear", value=value,
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
    g = _as_array(gram)
    if np.max(np.abs(np.diag(g) - 1.0)) > 1e-8:
        raise InvalidParameterError("Gramian must have unit diagonal "
                                    "(normalize the vectors first)")
    off = g - np.diag(np.diag(g))
    offdiag_hs = float(np.sqrt(np.sum(off ** 2)))
    min_eig = float(scipy.linalg.eigvalsh(g)[0])
    invertible = offdiag_hs < 1.0 or min_eig > 0.0
    return RieszCheck(offdiag_hs=offdiag_hs, invertible=invertible,
                      min_eigenvalue=min_eig)
