"""Sublinear measures: the norm scales like the square root of ||mu||_S.

For a lacunary sequence the mu-Gramian is entrywise dominated by
||mu||_S times the Lebesgue Gramian, which pins the operator norm to the
order ||mu||_S^(1/2); scaling the measure across four decades leaves
op_norm/sqrt(c) constant.  Vanishing sublinearity drives the essential-norm
trend to zero (compactness).
"""

import math

import numpy as np

from muntzlab import (EmbeddingProblem, PowerTailMeasure, ScaledMeasure,
                      analyze, essential_norm_trend, make_geometric,
                      modulus_report)

seq = make_geometric(2, 2, 20)
base = PowerTailMeasure(1.0, 2.0)

print("=== modulus report of the base measure ===")
rep = modulus_report(base)
print(f"  ||mu||_S = {rep.sublinear_norm} (exact: {rep.sup_is_exact}), "
      f"vanishing: {rep.vanishing}")
print(f"  power fit: mu(J_eps) ~ {rep.power_fit.coefficient:.4f} * "
      f"eps^{rep.power_fit.alpha:.4f} (residual {rep.power_fit.residual:.2e})")

print("\n=== op_norm / sqrt(c) across four decades of scaling ===")
for c in (1e-2, 1e-1, 1.0, 1e1, 1e2):
    # one problem holds A and the modulus report of this measure; its
    # truncated sequence holds B
    problem = EmbeddingProblem(seq, ScaledMeasure(c, base), 20)
    norm = analyze(problem, q_set=(2.0,)).op_norm
    s_norm = problem.modulus.sublinear_norm
    b = problem.truncated.lebesgue_gram
    dominated = bool(np.all(problem.gram <= s_norm * b * (1.0 + 1e-12)))
    print(f"  c = {c:7.2f}: op = {norm:10.6f}, op/sqrt(c) = "
          f"{norm / math.sqrt(c):.8f}, entrywise A <= ||mu||_S B: {dominated}")

print("\n=== vanishing sublinearity gives compactness (trend to zero) ===")
seq32 = make_geometric(2, 2, 32)
op = analyze(EmbeddingProblem(seq32, base, 32), q_set=(2.0,)).op_norm
for m, v in essential_norm_trend(seq32, base, 32,
                                 [2 ** j for j in range(1, 11)]):
    bar = "#" * max(1, int(60 * v / op))
    print(f"  m = {m:5d}: {v:.6f}  {bar}")
print(f"  (operator norm at full measure: {op:.6f})")
