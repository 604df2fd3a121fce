"""Singular values of truncated embeddings and the essential-norm trend.

The embedding into L^2(mu) restricted to the span of the first N normalized
monomials is a finite matrix pencil: its singular values come from whitening
by the closed-form inverse Cholesky factor of the Lebesgue Gramian (the
orthonormal Muntz-Legendre coefficients), with cond(B) reported; a basis
whose cond(B) * 2^-53 exceeds 1e-6 is refused.  Restricting mu to shrinking
neighborhoods of 1 tracks the essential norm.
"""

import numpy as np

from muntzlab import (EmbeddingProblem, IllConditionedBasisError,
                      PowerTailMeasure, analyze, atomic, essential_norm_trend,
                      lebesgue, make_geometric, point_mass)

seq = make_geometric(2, 2, 16)

print("=== three measures, N = 16 ===")
for name, mu in [("lebesgue (identity)", lebesgue()),
                 ("delta at 1/2 (rank 1)", point_mass(0.5)),
                 ("power tail (1-x)^1 density, compact-like", PowerTailMeasure(1.0, 2.0))]:
    rep = analyze(EmbeddingProblem(seq, mu, 16), q_set=(0.5, 1.0, 2.0))
    print(f"\n{name}")
    print(f"  op norm {rep.op_norm:.8f}, rank {rep.rank}, "
          f"decay fit {rep.decay_rate:.4f}, cond(B) {rep.cond_b:.3g}")
    print(f"  top singular values: "
          f"{np.array2string(rep.singular_values[:6], precision=5)}")
    print(f"  Schatten table: "
          + ", ".join(f"S_{q:g} = {v:.5f}" for q, v in rep.schatten.items()))
    print(f"  truncation trend (N, op): "
          + ", ".join(f"({t.n}, {t.op_norm:.6f})" for t in rep.trend))

print("\n=== essential-norm trend for the vanishing sublinear power tail ===")
mu = PowerTailMeasure(1.0, 2.0)
op = analyze(EmbeddingProblem(seq, mu, 16), q_set=(2.0,)).op_norm
for m, v in essential_norm_trend(seq, mu, 16, [2, 8, 32, 128, 512]):
    print(f"  m = {m:4d}: ||i restricted to [1-1/m, 1]|| = {v:.6f} "
          f"({v / op * 100:5.2f}% of op norm)")

print("\n=== a compactly supported measure: the trend hits exactly zero ===")
mu2 = atomic([(0.4, 1.0), (0.7, 0.5)])
for m, v in essential_norm_trend(seq, mu2, 16, [2, 4, 8]):
    print(f"  m = {m:2d}: {v:.6f}")

print("\n=== answered while cond(B) * 2^-53 <= 1e-6, refused beyond ===")
for ratio in (1.5, 1.3):
    dense = make_geometric(2, ratio, 22)
    try:
        op = analyze(EmbeddingProblem(dense, mu, 22)).op_norm
        print(f"  ratio {ratio}: cond(B) {dense.cond_b:.3g}, op norm {op:.8f}")
    except IllConditionedBasisError as exc:
        print(f"  ratio {ratio}: refused: {exc}")
