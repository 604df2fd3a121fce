"""The two recursive counterexample constructions and their verification.

Both build an atomic measure mu = sum c_n delta_{a_n} together with a
rapidly growing exponent sequence.  Exponent choices follow a doubling
search from the forced minimum until every recorded per-step inequality
holds; powers-of-two multiples keep the searches deterministic.  All atom
data lives in the log domain (by step 8 the first construction reaches
lambda ~ 1e18 and the second ~ 1e50, so positions are within 1e-18 of 1).

The first construction produces an L^2-embedding measure that is not an
L^1-embedding measure; the second, for given 0 < r < q, an embedding in the
Schatten class S_q but not in S_r.

Verification raises ConstructionBugError on the first violation of:

- every per-step condition of the ledger, recomputed from the built
  sequence and measure, and the ledger row's agreement with it.  Example 1:
  the sum condition lam_n sum_{k<n} a_k^{lam_n} <= 1/n^2, the growth ratio
  lam_n/(n^4 lam_{n-1}) >= 1 and the window n^2 a_n^{lam_n} in [1/2, 2].
  Example 2: the four slack families of ``_example2_slacks`` (own-sum,
  cross, ratio pairs, ratio single), each >= 0;
- the conclusions.  Example 1: ||g_n||^2 <= C ln n/n^2 (C = EXAMPLE1_C0
  unless a ``c_fit`` is given) and L^1 witnesses above their own-atom
  terms.  Example 2: alpha_n^2/e <= ||g_n||^2 <= 1.5 alpha_n^2 and an
  off-diagonal Hilbert-Schmidt sum below e/4.

Operator norms, Schatten trends, partial sums and whether the L^1
witnesses increase are reported, not checked.
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

# A-priori constant C0 in ||g_n||^2 <= C0 ln n / n^2 (n >= 2) for Example 1,
# where ||g_n||^2 = sum_k c_k lam_n a_k^{2 lam_n} and the atoms are
# a_n = 1 - 2 ln n/lam_n, c_n = 2 n^2 ln n/lam_n:
#   own atom:      c_n lam_n a_n^{2 lam_n} <= 2 n^2 ln n e^{-4 ln n} = 2 ln n/n^2;
#   earlier atoms: c_k <= c_1 = 1 and a_k^{2 lam_n} <= a_k^{lam_n}, so by the
#                  recorded sum condition they add <= 1/n^2 <= (1/ln 2) ln n/n^2;
#   later atoms:   c_k lam_n a_k^{2 lam_n} <= 2 k^2 ln k lam_n/lam_k, and
#                  lam_k >= k^4 lam_{k-1} makes the k = n+1 term
#                  <= 2 ln(n+1)/(n+1)^2 and each further term at most
#                  t_n = ((n+2)/(n+1))^2 ln(n+2)/(ln(n+1) (n+2)^4) (< 1 %) of
#                  the one before; f_n = n^2 ln(n+1)/((n+1)^2 ln n) stays
#                  below 1 - t_n for every n >= 2 (1 - f_n ~ 2/n, t_n ~ n^-4),
#                  so they add <= 2 ln n/n^2.
# Summing, C0 = 2 + 1/ln 2 + 2, and sum_n ||g_n||^2 <= ||g_1||^2 - C0 zeta'(2).
EXAMPLE1_C0 = 4.0 + 1.0 / math.log(2.0)


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
    c_bound: float                # C checked: ||g_n||^2 <= C ln n / n^2, n >= 2
    l1_witnesses: np.ndarray
    witness_lower_bounds: np.ndarray   # own-atom terms c_n lam_n a_n^{lam_n}
    witness_ratios: np.ndarray         # own-term / ln n, n >= 2
    witnesses_increasing: bool
    op_norms: tuple               # (N, op_norm) across truncations
    min_ratio: float              # lacunarity of the built sequence


def verify_example1(build: Example1Build, c_fit: float | None = None,
                    *, tol: float = 1e-12) -> Example1Report:
    """Re-verify the ledger's per-step conditions and both conclusions.

    Ledger: the sum condition, growth ratio and window of every row,
    recomputed from the built sequence and measure.  L^2 side:
    ||g_n||^2_{L^2(mu)} <= C (ln n)/n^2 for n >= 2, with the
    a-priori C = EXAMPLE1_C0 unless ``c_fit`` gives another; the fitted
    constant max ||g_n||^2 n^2/ln n is reported beside it, together with the
    operator norms across truncations.  L^1 side: the
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
    use_c = EXAMPLE1_C0 if c_fit is None else c_fit
    for i in range(1, n_max):
        bound = use_c * math.log(i + 1) / (i + 1) ** 2
        if g_sq[i] > bound * (1.0 + tol):
            raise ConstructionBugError(
                f"||g_{i+1}||^2 = {g_sq[i]:.6g} exceeds C ln n/n^2 = {bound:.6g}",
                n=i + 1, residual=g_sq[i] - bound)
    _check_example1_ledger(build, tol)

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
        c_bound=use_c, l1_witnesses=witnesses, witness_lower_bounds=own,
        witness_ratios=np.array([own[i] / math.log(i + 1)
                                 for i in range(1, n_max)]),
        witnesses_increasing=increasing, op_norms=tuple(op_norms),
        min_ratio=classify(seq).min_ratio)


def _check_ledger_value(name: str, n: int, recorded: float, value: float,
                        tol: float) -> None:
    if not abs(recorded - value) <= tol * abs(value):
        raise ConstructionBugError(
            f"ledger row {n}: recorded {name} {float(recorded)!r} differs from "
            f"the value {float(value)!r} recomputed from the build", n=n,
            residual=recorded - value)


def _check_example1_ledger(build: Example1Build, tol: float) -> None:
    """Recompute the sum condition, growth ratio and window of every row
    n >= 2 from the built sequence and measure."""
    lams = build.sequence.values
    log_a = build.measure.log_positions
    for i, row in enumerate(build.rows[1:], start=1):
        n, lam = i + 1, float(lams[i])
        growth = lam / (n ** 4 * float(lams[i - 1]))
        lhs_log = math.log(lam) + log_sum(lam * log_a[:i])
        window = math.exp(2.0 * math.log(n) + lam * float(log_a[i]))
        if growth < 1.0 - tol:
            raise ConstructionBugError(
                f"growth ratio lam_{n}/(n^4 lam_{n-1}) = {growth:.6g} below 1",
                n=n, residual=1.0 - growth)
        if lhs_log > -2.0 * math.log(n) + tol:
            raise ConstructionBugError(
                f"sum condition lam_{n} sum_k a_k^lam_{n} = {math.exp(lhs_log):.6g}"
                f" exceeds 1/n^2 = {1.0 / n ** 2:.6g}", n=n,
                residual=math.exp(lhs_log) - 1.0 / n ** 2)
        if not 0.5 <= window <= 2.0:
            raise ConstructionBugError(
                f"window n^2 a_{n}^lam_{n} = {window:.6g} outside [1/2, 2]",
                n=n, residual=window)
        for name, recorded, value in (
                ("lam", row.lam, lam), ("growth_ratio", row.growth_ratio, growth),
                ("sum_condition_lhs", row.sum_condition_lhs, math.exp(lhs_log)),
                ("sum_condition_rhs", row.sum_condition_rhs, 1.0 / n ** 2),
                ("window", row.window, window)):
            _check_ledger_value(name, n, recorded, value, tol)


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


def _check_example2_ledger(build: Example2Build, tol: float) -> None:
    """Recompute the four slack families of every row n >= 2 from the built
    sequence, measure and alphas; each must be >= 0 and match the row."""
    lams = build.sequence.values.tolist()
    log_a = build.measure.log_positions
    log_c = build.measure.log_weights
    log_alpha = np.log(build.alphas)
    names = ("slack_own_sum", "slack_cross", "slack_ratio_pairs",
             "slack_ratio_single")
    for i, row in enumerate(build.rows[1:], start=1):
        n = i + 1
        slacks = _example2_slacks(n, lams[i], lams[:i], log_a[:i], log_c[:i],
                                  log_alpha)
        for name, value in zip(names, slacks):
            if value < -tol:
                raise ConstructionBugError(
                    f"row {n}: {name} = {value:.6g} is negative", n=n,
                    residual=-value)
        for name, value in zip(names, slacks):
            _check_ledger_value(name, n, getattr(row, name), value, tol)
        _check_ledger_value("lam", n, row.lam, lams[i], tol)


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
    """Check the four recorded slack families, recomputed from the built
    data, the displayed two-sided norm bounds and the off-diagonal
    Hilbert-Schmidt sum of the normalized image Gramian, and report the
    l^q / l^r partial-sum dichotomy with an analyze() cross-check."""
    seq, mu = build.sequence, build.measure
    n_max = build.n_max
    alphas = build.alphas
    _check_example2_ledger(build, tol)

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
