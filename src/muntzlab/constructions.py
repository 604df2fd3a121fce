"""The two recursive counterexample constructions and their verification.

Both build an atomic measure mu = sum c_n delta_{a_n} together with a
rapidly growing exponent sequence.  Exponent choices follow a doubling
search from the forced minimum until every recorded per-step inequality
holds; powers-of-two multiples keep the searches deterministic.  All atom
data lives in the log domain (by step 8 the first construction reaches
lambda ~ 1e18 and the second ~ 1e50, so positions are within 1e-18 of 1).

The first construction produces an L^2-embedding measure that is not an
L^1-embedding measure; the second, for given 0 < r < q, an embedding in the
Schatten class S_q but not in S_r.  Verification re-checks every recorded
inequality and raises ConstructionBugError on any violation, so a clean exit
certifies the whole ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConstructionBugError, ConstructionError,
                     InvalidParameterError)
from .logdomain import log_sum
from .lp import l1_unboundedness_witness
from .measures import AtomicMeasure, atomic_from_logs
from .sequences import LambdaSequence, classify
from .spectral import (EmbeddingProblem, analyze, measure_gram,
                       riesz_sequence_check)

MAX_DOUBLINGS = 10 ** 6
EXAMPLE1_N_CAP = 12
EXAMPLE2_N_CAP = 10


# ---------------------------------------------------------------------------
# Example 1: Lambda_2-embedding but not Lambda_1-embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Example1Row:
    n: int
    lam: float
    log_a: float
    log_c: float
    growth_ratio: float        # lam_n / (n^4 lam_{n-1}), >= 1 by construction
    sum_condition_lhs: float   # lam_n * sum_{k<n} a_k^{lam_n}
    sum_condition_rhs: float   # 1/n^2
    window: float              # n^2 a_n^{lam_n}, ~1 (in [1/2, 2])


@dataclass(frozen=True)
class Example1Build:
    rows: tuple
    sequence: LambdaSequence
    measure: AtomicMeasure

    @property
    def n_max(self) -> int:
        return len(self.rows)

    def ledger_rows(self) -> list[dict]:
        return [vars(r).copy() for r in self.rows]


def build_example1(n_max: int) -> Example1Build:
    """Recursive build: seeds (lambda, a, c) = (1, 1/2, 1); for n >= 2 the
    exponent is the smallest power-of-two multiple of
    max(n^4 lam_{n-1}, lam_{n-1} + 1) satisfying
    lam_n sum_{k<n} a_k^{lam_n} <= 1/n^2, then a_n = 1 - 2 ln n / lam_n and
    c_n = 2 n^2 ln n / lam_n."""
    if not 2 <= n_max <= EXAMPLE1_N_CAP:
        raise InvalidParameterError(
            f"n_max must lie in 2..{EXAMPLE1_N_CAP} (log-domain report cap)")
    lams = [1.0]
    log_a = [math.log(0.5)]
    log_c = [0.0]
    rows = [Example1Row(n=1, lam=1.0, log_a=log_a[0], log_c=0.0,
                        growth_ratio=math.nan, sum_condition_lhs=math.nan,
                        sum_condition_rhs=math.nan, window=math.nan)]
    for n in range(2, n_max + 1):
        base = max(n ** 4 * lams[-1], lams[-1] + 1.0)
        cand = base
        prev_log_a = np.array(log_a)
        for _ in range(MAX_DOUBLINGS):
            lhs_log = math.log(cand) + log_sum(cand * prev_log_a)
            if lhs_log <= -2.0 * math.log(n):
                break
            cand *= 2.0
        else:
            raise ConstructionError(f"doubling search for lambda_{n} failed")
        ln_n = math.log(n)
        if 2.0 * ln_n / cand >= 1.0:
            raise ConstructionError(f"lambda_{n} too small for a_n in (0,1)")
        lams.append(cand)
        log_a.append(math.log1p(-2.0 * ln_n / cand))
        log_c.append(math.log(2.0) + 2.0 * ln_n + math.log(ln_n) - math.log(cand))
        rows.append(Example1Row(
            n=n, lam=cand, log_a=log_a[-1], log_c=log_c[-1],
            growth_ratio=cand / (n ** 4 * lams[-2]),
            sum_condition_lhs=math.exp(lhs_log),
            sum_condition_rhs=1.0 / n ** 2,
            window=math.exp(2.0 * ln_n + cand * log_a[-1])))
    return Example1Build(rows=tuple(rows),
                         sequence=LambdaSequence(np.array(lams), origin="constructed"),
                         measure=atomic_from_logs(log_a, log_c))


@dataclass(frozen=True)
class Example1Report:
    g_norms_sq: np.ndarray        # ||g_n||^2_{L^2(mu)}
    partial_sums: np.ndarray
    c_fit: float                  # max_n ||g_n||^2 n^2 / ln n over n >= 2
    bound_ok: bool                # ||g_n||^2 <= c_fit ln n / n^2 for all n >= 2
    l1_witnesses: np.ndarray
    witness_lower_bounds: np.ndarray   # own-atom terms c_n lam_n a_n^{lam_n}
    witness_ratios: np.ndarray         # own-term / ln n, n >= 2
    witnesses_increasing: bool
    op_norms: tuple               # (N, op_norm) across truncations
    min_ratio: float              # lacunarity of the built sequence


def verify_example1(build: Example1Build, c_fit: float | None = None,
                    *, tol: float = 1e-12) -> Example1Report:
    """Re-verify both conclusions on the built ledger.

    L^2 side: ||g_n||^2_{L^2(mu)} <= C (ln n)/n^2 with the fitted (or given)
    constant, plus bounded operator norms across truncations.  L^1 side: the
    witness norms ||lambda_n x^lambda_n||_{L^1(mu)} dominate their own-atom
    terms (~ 2 ln n) and increase.  Any failed inequality raises
    ConstructionBugError with the offending index.
    """
    seq, mu = build.sequence, build.measure
    n_max = build.n_max
    lams = seq.values
    log_a, log_c = mu.log_positions, mu.log_weights

    g_sq = lams * np.exp(mu.log_moments(2.0 * lams))
    ratios = np.array([g_sq[i] * (i + 1) ** 2 / math.log(i + 1)
                       for i in range(1, n_max)])
    fitted = float(ratios.max())
    use_c = fitted if c_fit is None else c_fit
    for i in range(1, n_max):
        bound = use_c * math.log(i + 1) / (i + 1) ** 2
        if g_sq[i] > bound * (1.0 + tol):
            raise ConstructionBugError(
                f"||g_{i+1}||^2 = {g_sq[i]:.6g} exceeds C ln n/n^2 = {bound:.6g}",
                n=i + 1, residual=g_sq[i] - bound)

    witnesses = np.array([v for _, v in l1_unboundedness_witness(seq, mu)])
    own = np.exp(log_c + np.log(lams) + lams * log_a)
    for i in range(n_max):
        if witnesses[i] < own[i] * (1.0 - tol):
            raise ConstructionBugError(
                f"L1 witness {witnesses[i]:.6g} below its own-atom term "
                f"{own[i]:.6g}", n=i + 1, residual=own[i] - witnesses[i])
    increasing = bool(np.all(np.diff(witnesses) > 0.0))

    op_norms = []
    for n_i in range(max(2, n_max - 2), n_max + 1):
        rep = analyze(EmbeddingProblem(seq, mu, n_i), q_set=(2.0,))
        op_norms.append((n_i, rep.op_norm))

    return Example1Report(
        g_norms_sq=g_sq, partial_sums=np.cumsum(g_sq), c_fit=fitted,
        bound_ok=True, l1_witnesses=witnesses, witness_lower_bounds=own,
        witness_ratios=np.array([own[i] / math.log(i + 1)
                                 for i in range(1, n_max)]),
        witnesses_increasing=increasing, op_norms=tuple(op_norms),
        min_ratio=classify(seq).min_ratio)


# ---------------------------------------------------------------------------
# Example 2: in S_q but not in S_r
# ---------------------------------------------------------------------------

def _default_theta(q: float, r: float) -> float:
    # midpoint of (1/q, 1/r); always satisfies r*theta < 1 < q*theta
    return 0.5 * (1.0 / q + 1.0 / r)


def _log_beta_sqrt(i: int, j: int) -> float:
    # beta_ij = 4^-(i+j+2), so log sqrt(beta_ij) = -(i+j+2) log 2
    return -(i + j + 2.0) * math.log(2.0)


@dataclass(frozen=True)
class Example2Row:
    n: int
    lam: float
    log_a: float              # = -1/(2 lambda_n)
    log_c: float
    slack_own_sum: float      # rhs - lhs of the n-th own-sum condition
    slack_cross: float        # min slack over the cross-term conditions
    slack_ratio_pairs: float  # min slack over the (i,j) ratio conditions
    slack_ratio_single: float # min slack over the single-index ratio conditions


@dataclass(frozen=True)
class Example2Build:
    rows: tuple
    sequence: LambdaSequence
    measure: AtomicMeasure
    q: float
    r: float
    theta: float
    alphas: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.rows)

    def ledger_rows(self) -> list[dict]:
        return [vars(r).copy() for r in self.rows]


def build_example2(q: float, r: float, n_max: int,
                   theta: float | None = None) -> Example2Build:
    """Recursive build for given 0 < r < q.

    alpha_n = (n+1)^-theta with r*theta <= 1 < q*theta (in l^q, not in l^r,
    all |alpha_n| < 1); beta_nm = 4^-(n+m+2) sums to 1/144 < 1/4.  Exponents
    double from 2*lam_{n-1} until the four recorded condition families hold;
    then a_n = exp(-1/(2 lam_n)) and c_n = alpha_n^2 / lam_n.
    """
    if not 0.0 < r < q:
        raise InvalidParameterError("need 0 < r < q")
    if not 1 <= n_max <= EXAMPLE2_N_CAP:
        raise InvalidParameterError(
            f"n_max must lie in 1..{EXAMPLE2_N_CAP} (log-domain report cap)")
    theta = _default_theta(q, r) if theta is None else theta
    if not (r * theta <= 1.0 < q * theta):
        raise InvalidParameterError(
            f"theta = {theta:g} must satisfy r*theta <= 1 < q*theta")
    alphas = np.array([(n + 1.0) ** -theta for n in range(1, n_max + 1)])
    log_alpha = np.log(alphas)

    lams = [1.0]
    log_a = [-0.5]
    log_c = [2.0 * log_alpha[0] - 0.0]
    rows = [Example2Row(n=1, lam=1.0, log_a=-0.5, log_c=log_c[0],
                        slack_own_sum=math.nan, slack_cross=math.nan,
                        slack_ratio_pairs=math.nan, slack_ratio_single=math.nan)]

    for n in range(2, n_max + 1):
        la_prev = np.array(log_a)
        lc_prev = np.array(log_c)
        cand = 2.0 * lams[-1]
        for _ in range(MAX_DOUBLINGS):
            slacks = _example2_slacks(n, cand, lams, la_prev, lc_prev, log_alpha)
            if min(slacks) >= 0.0:
                break
            cand *= 2.0
        else:
            raise ConstructionError(f"doubling search for lambda_{n} failed")
        lams.append(cand)
        log_a.append(-0.5 / cand)
        log_c.append(2.0 * log_alpha[n - 1] - math.log(cand))
        rows.append(Example2Row(
            n=n, lam=cand, log_a=log_a[-1], log_c=log_c[-1],
            slack_own_sum=slacks[0], slack_cross=slacks[1],
            slack_ratio_pairs=slacks[2], slack_ratio_single=slacks[3]))

    return Example2Build(
        rows=tuple(rows),
        sequence=LambdaSequence(np.array(lams), origin="constructed"),
        measure=atomic_from_logs(log_a, log_c),
        q=q, r=r, theta=theta, alphas=alphas)


def _example2_slacks(n, cand, lams, la_prev, lc_prev, log_alpha):
    """Minimal log-domain slacks (rhs - lhs) of the four condition families
    for candidate lambda_n; all must be >= 0."""
    log_cand = math.log(cand)
    la_n = log_alpha[n - 1]

    # own-sum: sum_{i<n} c_i lam_n a_i^{2 lam_n} <= alpha_n^2 / 8
    lhs = log_sum(lc_prev + log_cand + 2.0 * cand * la_prev)
    s_own = (2.0 * la_n - math.log(8.0)) - lhs

    # cross: sum_{i<n} c_i sqrt(lam_j lam_n) a_i^{lam_j+lam_n}
    #        <= alpha_j alpha_n sqrt(beta_jn) / 4, for each j < n
    s_cross = math.inf
    for j in range(1, n):
        lhs = log_sum(lc_prev + 0.5 * (math.log(lams[j - 1]) + log_cand)
                      + (lams[j - 1] + cand) * la_prev)
        rhs = log_alpha[j - 1] + la_n + _log_beta_sqrt(j, n) - math.log(4.0)
        s_cross = min(s_cross, rhs - lhs)

    # ratio pairs: alpha_n^2 sqrt(lam_i lam_j)/lam_n
    #              <= 2^-(n+2-max(i,j)) alpha_i alpha_j sqrt(beta_ij)
    s_pairs = math.inf
    for i in range(1, n):
        for j in range(1, n):
            lhs = (2.0 * la_n + 0.5 * (math.log(lams[i - 1]) + math.log(lams[j - 1]))
                   - log_cand)
            rhs = (-(n + 2.0 - max(i, j)) * math.log(2.0)
                   + log_alpha[i - 1] + log_alpha[j - 1] + _log_beta_sqrt(i, j))
            s_pairs = min(s_pairs, rhs - lhs)

    # ratio single: alpha_n^2 sqrt(lam_i/lam_n) <= alpha_i alpha_n sqrt(beta_in)/2
    s_single = math.inf
    for i in range(1, n):
        lhs = 2.0 * la_n + 0.5 * math.log(lams[i - 1]) - 0.5 * log_cand
        rhs = math.log(0.5) + log_alpha[i - 1] + la_n + _log_beta_sqrt(i, n)
        s_single = min(s_single, rhs - lhs)

    return (s_own, s_cross, s_pairs, s_single)


@dataclass(frozen=True)
class Example2Report:
    norms_sq: np.ndarray          # ||i g_n||^2_{L^2(mu)}
    lower_bounds: np.ndarray      # alpha_n^2 / e
    upper_bounds: np.ndarray      # 1.5 alpha_n^2
    offdiag_hs: float
    offdiag_hs_sq: float
    gram_invertible: bool
    lq_partial_sums: np.ndarray   # partial sums of ||i g_n||^q
    lr_partial_sums: np.ndarray   # partial sums of ||i g_n||^r
    schatten_trend_q: tuple       # (N, S_q partial norm) from analyze()
    schatten_trend_r: tuple
    beta_total: float


def verify_example2(build: Example2Build, *, tol: float = 1e-12) -> Example2Report:
    """Check the displayed two-sided norm bounds, the off-diagonal
    Hilbert-Schmidt sum of the normalized image Gramian, and report the
    l^q / l^r partial-sum dichotomy with an analyze() cross-check."""
    seq, mu = build.sequence, build.measure
    n_max = build.n_max
    alphas = build.alphas

    a = measure_gram(seq, mu).entries
    norms_sq = np.diag(a).copy()
    lower = alphas ** 2 / math.e
    upper = 1.5 * alphas ** 2
    for i in range(n_max):
        if norms_sq[i] < lower[i] * (1.0 - tol):
            raise ConstructionBugError(
                f"||i g_{i+1}||^2 = {norms_sq[i]:.6g} below alpha^2/e = "
                f"{lower[i]:.6g}", n=i + 1, residual=lower[i] - norms_sq[i])
        if norms_sq[i] > upper[i] * (1.0 + tol):
            raise ConstructionBugError(
                f"||i g_{i+1}||^2 = {norms_sq[i]:.6g} above 1.5 alpha^2 = "
                f"{upper[i]:.6g}", n=i + 1, residual=norms_sq[i] - upper[i])

    norms = np.sqrt(norms_sq)
    check = riesz_sequence_check(a / np.outer(norms, norms))
    if check.offdiag_hs ** 2 >= math.e / 4.0:
        raise ConstructionBugError(
            f"off-diagonal HS sum {check.offdiag_hs**2:.6g} not below e/4",
            residual=check.offdiag_hs ** 2 - math.e / 4.0)

    lq = np.cumsum(norms ** build.q)
    lr = np.cumsum(norms ** build.r)

    trend_q = []
    trend_r = []
    for n_i in range(max(2, n_max - 2), n_max + 1):
        rep = analyze(EmbeddingProblem(seq, mu, n_i),
                      q_set=(build.r, build.q))
        trend_q.append((n_i, rep.schatten[build.q]))
        trend_r.append((n_i, rep.schatten[build.r]))

    beta_total = sum(4.0 ** -(i + j + 2.0)
                     for i in range(1, n_max + 1)
                     for j in range(1, n_max + 1))
    return Example2Report(
        norms_sq=norms_sq, lower_bounds=lower, upper_bounds=upper,
        offdiag_hs=check.offdiag_hs, offdiag_hs_sq=check.offdiag_hs ** 2,
        gram_invertible=check.invertible,
        lq_partial_sums=lq, lr_partial_sums=lr,
        schatten_trend_q=tuple(trend_q), schatten_trend_r=tuple(trend_r),
        beta_total=beta_total)
