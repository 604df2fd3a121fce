"""The two recursive counterexample constructions and their verification.

Both build an atomic measure mu = sum c_n delta_{a_n} together with a
rapidly growing exponent sequence.  Step n takes lambda_n on the doubling
ladder base * 2^k, k = 0, 1, ..., which the double range bounds to about
1000 rungs: the first rung where every condition holds is taken, so the
searches are deterministic, and a ladder with no such rung raises
ConstructionError.  The ladder is evaluated in two blocks, its first 64
rungs and then the rest, and the search stops at the first block holding a
passing rung; every rung's values are computed row by row, so they do not
depend on the block.  All atom data lives in
the log domain (by step 8 the first construction reaches lambda ~ 1e18 and
the second ~ 1e50, so positions are within 1e-18 of 1).

Each example has one array condition evaluator, ``_example1_step`` and
``_example2_step``, over an array of candidate exponents.  Its sums over
the earlier atoms are log moments of the atomic measure built so far
(:meth:`Measure.log_moments`); Example 2's ratio conditions are closed-form
(i, j) arrays, affine in log lambda_n.  The search calls it on the ladder,
and verification calls it again at the recorded lambda_n.

The first construction produces an L^2-embedding measure that is not an
L^1-embedding measure; the second, for given 0 < r < q, an embedding in the
Schatten class S_q but not in S_r.

Verification raises ConstructionBugError on the first violation of:

- every per-step condition of the ledger, recomputed by the evaluator from
  the built sequence and measure, and the ledger row's agreement with it.
  Example 1: the sum condition lam_n sum_{k<n} a_k^{lam_n} <= 1/n^2, the
  growth ratio lam_n/(n^4 lam_{n-1}) >= 1 and the window n^2 a_n^{lam_n} in
  [1/2, 2].  Example 2: the four slack families own-sum, cross, ratio pairs
  and ratio single, each >= 0;
- the conclusions.  Example 1: ||g_n||^2 <= C ln n/n^2 (C = EXAMPLE1_C0
  unless a ``c_fit`` is given) and L^1 witnesses above their own-atom
  terms.  Example 2: alpha_n^2/e <= ||g_n||^2 <= 1.5 alpha_n^2 and an
  off-diagonal Hilbert-Schmidt sum below e/4.

Operator norms and Schatten trends (leading blocks of one factorization at
n_max), partial sums and whether the L^1 witnesses increase are reported,
not checked; a partial-sum term below the double range is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConstructionBugError, ConstructionError,
                     InvalidParameterError)
from .lp import l1_unboundedness_witness
from .measures import AtomicMeasure, atomic_from_logs
from .sequences import LambdaSequence, classify
from .spectral import (EmbeddingProblem, _schatten_table, _truncated_spectra,
                       riesz_sequence_check)

EXAMPLE1_N_CAP = 12
EXAMPLE2_N_CAP = 10
_LN2 = math.log(2.0)
_VERIFY_TOL = 1e-12      # relative slack of every re-verified inequality
_FIRST_BLOCK = 64        # ladder rungs of the search's first step evaluation

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
# the doubling search and the ledger check, shared by both examples
# ---------------------------------------------------------------------------
#
# ``step(lam)`` is an example's condition evaluator at step n over an array
# of candidates lam: it returns the ledger values (keyed by row field) and
# the condition slacks (keyed by condition), each an array over lam; a
# condition holds where its slack is >= 0.  Each candidate's values come from
# its own row alone (log_sum along the atom axis, minima per candidate), so
# they are the same whatever other candidates share the call.

def _search(n: int, base: float, step) -> tuple[float, dict]:
    """lambda_n = base * 2**k for the least k at which every slack of
    ``step`` is >= 0, with the ledger values there.  The ladder runs up to
    the rung where 2 * base * 2**k would overflow (about 1000 rungs); its
    first ``_FIRST_BLOCK`` rungs are evaluated in one call and, when none of
    them holds, the rest in a second.  ``step`` computes each rung from that
    rung alone, so the block split leaves every value unchanged."""
    ladder = np.ldexp(base, np.arange(1024 - math.frexp(base)[1]))
    for block in (ladder[:_FIRST_BLOCK], ladder[_FIRST_BLOCK:]):
        if not block.size:
            continue
        ledger, slacks = step(block)
        holds = np.all([s >= 0.0 for s in slacks.values()], axis=0)
        if holds.any():
            k = int(np.argmax(holds))
            return float(block[k]), {name: float(v[k])
                                     for name, v in ledger.items()}
    raise ConstructionError(
        f"no lambda_{n} = {base:g} * 2^k in the double range meets every "
        f"step-{n} condition")


def _check_ledger(build: _Build, tol: float) -> None:
    """Recompute every step n >= 2 at its recorded lambda_n with the build's
    own evaluator: every slack must be >= -tol and the row must record
    lambda_n and the recomputed values."""
    for i, row in enumerate(build.rows[1:], start=1):
        n, lam = i + 1, build.sequence.values[i:i + 1]
        ledger, slacks = build._step_at(i, lam)
        for name, (value,) in slacks.items():
            if value < -tol:
                raise ConstructionBugError(
                    f"row {n}: {name} fails, slack {value:.6g} is negative",
                    n=n, residual=-float(value))
        for name, (value,) in {"lam": lam, **ledger}.items():
            recorded, value = getattr(row, name), float(value)
            if not abs(recorded - value) <= tol * abs(value):
                raise ConstructionBugError(
                    f"ledger row {n}: recorded {name} {float(recorded)!r} "
                    f"differs from the value {value!r} recomputed from the "
                    "build", n=n, residual=recorded - value)


@dataclass(frozen=True)
class _Build:
    """Ledger rows and what was built; ``_step_at(i, lam)`` evaluates row i."""

    rows: tuple
    sequence: LambdaSequence
    measure: AtomicMeasure

    @property
    def n_max(self) -> int:
        return len(self.rows)

    def ledger_rows(self) -> list[dict]:
        return [vars(r).copy() for r in self.rows]


def _last_three_spectra(problem: EmbeddingProblem):
    """(k, singular values) at k = max(2, n - 2)..n, leading blocks at n."""
    sizes = range(max(2, problem.n - 2), problem.n + 1)
    return zip(sizes, _truncated_spectra(problem, sizes))


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
class Example1Build(_Build):
    def _step_at(self, i: int, lam: np.ndarray) -> tuple[dict, dict]:
        log_a = self.measure.log_positions
        return _example1_step(i + 1, lam, log_a[i], self.sequence[i - 1], log_a[:i])


def _example1_step(n: int, lam: np.ndarray, log_a_n, lam_prev: float,
                   log_a_prev: np.ndarray) -> tuple[dict, dict]:
    """Example 1's step-n ledger values and slacks over the candidates
    ``lam`` with atoms ``log_a_n``.  The sum lam sum_{k<n} a_k^lam is lam
    times the log moment of order lam of the earlier atoms with unit
    weights."""
    log_n2 = 2.0 * math.log(n)
    growth = lam / (n ** 4 * lam_prev)
    unit = atomic_from_logs(log_a_prev, np.zeros(len(log_a_prev)))
    lhs_log = np.log(lam) + unit.log_moments(lam)
    window = np.exp(log_n2 + lam * log_a_n)
    ledger = {"growth_ratio": growth, "sum_condition_lhs": np.exp(lhs_log),
              "sum_condition_rhs": np.full(lam.shape, 1.0 / n ** 2),
              "window": window}
    slacks = {"growth ratio lam_n/(n^4 lam_{n-1}) >= 1": growth - 1.0,
              "sum condition log(lam_n sum_k a_k^lam_n) <= log(1/n^2)":
                  -log_n2 - lhs_log,
              "window n^2 a_n^lam_n >= 1/2": window - 0.5,
              "window n^2 a_n^lam_n <= 2": 2.0 - window}
    return ledger, slacks


def build_example1(n_max: int) -> Example1Build:
    """Recursive build: seeds (lambda, a, c) = (1, 1/2, 1); for n >= 2 the
    exponent is the smallest power-of-two multiple of
    max(n^4 lam_{n-1}, lam_{n-1} + 1) satisfying
    lam_n sum_{k<n} a_k^{lam_n} <= 1/n^2 (and the growth and window
    conditions), then a_n = 1 - 2 ln n / lam_n and c_n = 2 n^2 ln n / lam_n."""
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
        ln_n = math.log(n)
        lam_prev, log_a_prev = lams[-1], np.array(log_a)
        lam, ledger = _search(
            n, max(n ** 4 * lam_prev, lam_prev + 1.0),
            lambda cand: _example1_step(n, cand, np.log1p(-2.0 * ln_n / cand),
                                        lam_prev, log_a_prev))
        lams.append(lam)
        log_a.append(math.log1p(-2.0 * ln_n / lam))
        log_c.append(math.log(2.0) + 2.0 * ln_n + math.log(ln_n) - math.log(lam))
        rows.append(Example1Row(n=n, lam=lam, log_a=log_a[-1],
                                log_c=log_c[-1], **ledger))
    return Example1Build(rows=tuple(rows),
                         sequence=LambdaSequence(np.array(lams)),
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


def verify_example1(build: Example1Build,
                    c_fit: float | None = None) -> Example1Report:
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
    n = np.arange(2.0, n_max + 1.0)

    g_sq = lams * np.exp(mu.log_moments(2.0 * lams))
    use_c = EXAMPLE1_C0 if c_fit is None else c_fit
    bound = use_c * np.log(n) / n ** 2
    over = np.flatnonzero(g_sq[1:] > bound * (1.0 + _VERIFY_TOL))
    if over.size:
        i = int(over[0])
        raise ConstructionBugError(
            f"||g_{i+2}||^2 = {g_sq[i+1]:.6g} exceeds C ln n/n^2 = {bound[i]:.6g}",
            n=i + 2, residual=g_sq[i + 1] - bound[i])
    _check_ledger(build, _VERIFY_TOL)

    witnesses = np.array([v for _, v in l1_unboundedness_witness(seq, mu)])
    own = np.exp(log_c + np.log(lams) + lams * log_a)
    under = np.flatnonzero(witnesses < own * (1.0 - _VERIFY_TOL))
    if under.size:
        i = int(under[0])
        raise ConstructionBugError(
            f"L1 witness {witnesses[i]:.6g} below its own-atom term "
            f"{own[i]:.6g}", n=i + 1, residual=own[i] - witnesses[i])
    increasing = bool(np.all(np.diff(witnesses) > 0.0))

    op_norms = [(k, float(svals[0])) for k, svals in
                _last_three_spectra(EmbeddingProblem(seq, mu, n_max))]

    return Example1Report(
        g_norms_sq=g_sq, partial_sums=np.cumsum(g_sq),
        c_fit=float(np.max(g_sq[1:] * n ** 2 / np.log(n))),
        c_bound=use_c, l1_witnesses=witnesses, witness_lower_bounds=own,
        witness_ratios=own[1:] / np.log(n),
        witnesses_increasing=increasing, op_norms=tuple(op_norms),
        min_ratio=classify(seq).min_ratio)


# ---------------------------------------------------------------------------
# Example 2: in S_q but not in S_r
# ---------------------------------------------------------------------------

def _default_theta(q: float, r: float) -> float:
    # midpoint of (1/q, 1/r); always satisfies r*theta < 1 < q*theta
    return 0.5 * (1.0 / q + 1.0 / r)


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
class Example2Build(_Build):
    q: float
    r: float
    theta: float
    alphas: np.ndarray

    def _step_at(self, i: int, lam: np.ndarray) -> tuple[dict, dict]:
        mu, lams = self.measure, self.sequence.values
        return _example2_step(i + 1, lam, lams[:i], mu.log_positions[:i],
                              mu.log_weights[:i], np.log(self.alphas))


def _example2_step(n: int, lam: np.ndarray, lams_prev: np.ndarray,
                   log_a_prev: np.ndarray, log_c_prev: np.ndarray,
                   log_alpha: np.ndarray) -> tuple[dict, dict]:
    """Example 2's four step-n slack families (rhs - lhs in the log domain,
    each the minimum over its indices) over the candidates ``lam``; the
    ledger records them as they are.  With beta_ij = 4^-(i+j+2) and
    i, j < n:

    - own-sum: sum_{i<n} c_i lam a_i^{2 lam} <= alpha_n^2 / 8;
    - cross: sum_{i<n} c_i sqrt(lam_j lam) a_i^{lam_j+lam}
      <= alpha_j alpha_n sqrt(beta_jn) / 4 for each j;
    - ratio pairs: alpha_n^2 sqrt(lam_i lam_j)/lam
      <= 2^-(n+2-max(i,j)) alpha_i alpha_j sqrt(beta_ij);
    - ratio single: alpha_n^2 sqrt(lam_i/lam) <= alpha_i alpha_n sqrt(beta_in)/2.

    The two sums are log moments of the atoms built so far at the orders
    2 lam and lam_j + lam.  The ratio families are affine in log lam; each
    pair's slack is formed before the minimum is taken, so that a slack near
    0 keeps its relative accuracy.
    """
    log_lam = np.log(lam)
    mu = atomic_from_logs(log_a_prev, log_c_prev)
    idx = np.arange(1.0, n)
    la_n, la = log_alpha[n - 1], log_alpha[:n - 1]
    log_lam_prev = np.log(lams_prev)
    own = (2.0 * la_n - math.log(8.0)) - (log_lam + mu.log_moments(2.0 * lam))
    cross = ((la + la_n - (idx + n + 2.0) * _LN2 - math.log(4.0))
             - 0.5 * (log_lam_prev + log_lam[:, None])
             - mu.log_moments(lams_prev + lam[:, None])).min(axis=1)
    i, j = idx[:, None], idx[None, :]
    pairs = ((-(n + 2.0 - np.maximum(i, j)) * _LN2 + la[:, None] + la[None, :]
              - (i + j + 2.0) * _LN2)
             - ((2.0 * la_n + 0.5 * (log_lam_prev[:, None] + log_lam_prev[None, :]))
                - log_lam[:, None, None]))
    single = ((math.log(0.5) + la + la_n - (idx + n + 2.0) * _LN2)
              - ((2.0 * la_n + 0.5 * log_lam_prev) - 0.5 * log_lam[:, None]))
    slacks = {"slack_own_sum": own, "slack_cross": cross,
              "slack_ratio_pairs": pairs.min(axis=(1, 2)),
              "slack_ratio_single": single.min(axis=1)}
    return slacks, slacks


def build_example2(q: float, r: float, n_max: int,
                   theta: float | None = None) -> Example2Build:
    """Recursive build for given 0 < r < q.

    alpha_n = (n+1)^-theta with r*theta <= 1 < q*theta (in l^q, not in l^r,
    all |alpha_n| < 1); beta_nm = 4^-(n+m+2) sums to 1/144 < 1/4.  Exponents
    double from 2*lam_{n-1} until the four recorded condition families hold;
    then a_n = exp(-1/(2 lam_n)) and c_n = alpha_n^2 / lam_n.  An alpha_n
    whose square underflows (the norms ||g_n||^2 are about alpha_n^2) is
    refused.
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
    representable = alphas ** 2 >= np.finfo(float).tiny
    if not representable.all():
        n = int(np.argmin(representable)) + 1
        raise InvalidParameterError(
            f"alpha_{n}^2 = {n + 1}^(-2 theta) underflows at theta = {theta:g}; "
            "reduce theta or n_max")
    log_alpha = np.log(alphas)

    lams = [1.0]
    log_a = [-0.5]
    log_c = [2.0 * log_alpha[0] - 0.0]
    rows = [Example2Row(n=1, lam=1.0, log_a=-0.5, log_c=log_c[0],
                        slack_own_sum=math.nan, slack_cross=math.nan,
                        slack_ratio_pairs=math.nan, slack_ratio_single=math.nan)]

    for n in range(2, n_max + 1):
        prev = (np.array(lams), np.array(log_a), np.array(log_c))
        lam, slacks = _search(
            n, 2.0 * lams[-1],
            lambda cand: _example2_step(n, cand, *prev, log_alpha))
        lams.append(lam)
        log_a.append(-0.5 / lam)
        log_c.append(2.0 * log_alpha[n - 1] - math.log(lam))
        rows.append(Example2Row(n=n, lam=lam, log_a=log_a[-1],
                                log_c=log_c[-1], **slacks))

    return Example2Build(
        rows=tuple(rows),
        sequence=LambdaSequence(np.array(lams)),
        measure=atomic_from_logs(log_a, log_c),
        q=q, r=r, theta=theta, alphas=alphas)


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
    schatten_trend_q: tuple       # (N, S_q partial norm), last three N
    schatten_trend_r: tuple
    beta_total: float


def verify_example2(build: Example2Build) -> Example2Report:
    """Check the four recorded slack families, recomputed from the built
    data, the displayed two-sided norm bounds and the off-diagonal
    Hilbert-Schmidt sum of the normalized image Gramian, and report the
    l^q / l^r partial-sum dichotomy, refusing a term below the double range,
    with the Schatten partial norms of the last three truncations."""
    n_max = build.n_max
    alphas = build.alphas
    _check_ledger(build, _VERIFY_TOL)

    problem = EmbeddingProblem(build.sequence, build.measure, n_max)
    a = problem.gram
    norms_sq = np.diag(a).copy()
    lower = alphas ** 2 / math.e
    upper = 1.5 * alphas ** 2
    for bad, side, bounds in (
            (norms_sq < lower * (1.0 - _VERIFY_TOL), "below alpha^2/e", lower),
            (norms_sq > upper * (1.0 + _VERIFY_TOL), "above 1.5 alpha^2", upper)):
        if bad.any():
            i = int(np.argmax(bad))
            raise ConstructionBugError(
                f"||i g_{i+1}||^2 = {norms_sq[i]:.6g} {side} = {bounds[i]:.6g}",
                n=i + 1, residual=abs(norms_sq[i] - bounds[i]))

    norms = np.sqrt(norms_sq)
    check = riesz_sequence_check(a / np.outer(norms, norms))
    if check.offdiag_hs ** 2 >= math.e / 4.0:
        raise ConstructionBugError(
            f"off-diagonal HS sum {check.offdiag_hs**2:.6g} not below e/4",
            residual=check.offdiag_hs ** 2 - math.e / 4.0)

    terms = {"q": norms ** build.q, "r": norms ** build.r}
    for name, t in terms.items():
        if t.min() < np.finfo(float).tiny:
            i = int(np.argmax(t < np.finfo(float).tiny))
            raise InvalidParameterError(
                f"||i g_{i + 1}||^{name} = {norms[i]:.6g}^{getattr(build, name):g} "
                f"underflows the double range; reduce {name}, theta or n_max")

    tables = [(k, _schatten_table(svals, (build.r, build.q)))
              for k, svals in _last_three_spectra(problem)]
    trend_q = [(k, table[build.q]) for k, table in tables]
    trend_r = [(k, table[build.r]) for k, table in tables]

    # sum_ij beta_ij = (sum_i 4^-(i+1))^2, exact in double at these sizes
    beta_total = float(np.ldexp(1.0, -2 * np.arange(2, n_max + 2)).sum() ** 2)
    return Example2Report(
        norms_sq=norms_sq, lower_bounds=lower, upper_bounds=upper,
        offdiag_hs=check.offdiag_hs, offdiag_hs_sq=check.offdiag_hs ** 2,
        gram_invertible=check.invertible,
        lq_partial_sums=np.cumsum(terms["q"]),
        lr_partial_sums=np.cumsum(terms["r"]),
        schatten_trend_q=tuple(trend_q), schatten_trend_r=tuple(trend_r),
        beta_total=beta_total)
