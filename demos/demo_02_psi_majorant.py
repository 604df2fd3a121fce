"""The majorant function psi and its pointwise derivative bounds.

psi(x) = sum_n d_n**-1 x**lambda_n dominates |f(x)| for every unit-norm f
in the truncated space, and its derivatives dominate |f^(k)(x)|.  For a
lacunary sequence psi grows like (1-x)**-1/2; for the standard sequence n^2
it grows like exp(C/(1-x)) (the fitted C is reported, not asserted).
"""

import math

import numpy as np

from muntzlab import (MuntzPolynomial, PsiEvaluator, big_psi, make_geometric,
                      make_power, psi_a_eval, random_unit)

print("=== lacunary case: psi(x) * sqrt(1-x) stays in a bounded window ===")
psi = PsiEvaluator.from_sequence(make_geometric(2, 2, 30))
for x in (0.5, 0.9, 0.99, 0.999):
    v = psi.eval(x)
    print(f"  x = {x:7.3f}: psi = {v.value:12.4e}, "
          f"psi*sqrt(1-x) = {v.value * math.sqrt(1 - x):8.4f}, "
          f"tail sound = {v.tail_sound}")

print("\n=== standard sequence n^2: log psi against 1/(1-x) ===")
psi2 = PsiEvaluator.from_sequence(make_power(2, 24))
xs = np.linspace(0.55, 0.9, 8)
logs = np.array([math.log(psi2.eval(float(x)).value) for x in xs])
slope = np.polyfit(1.0 / (1.0 - xs), logs, 1)[0]
for x, lv in zip(xs, logs):
    print(f"  x = {x:5.3f}: log psi = {lv:8.3f}")
print(f"fitted growth constant C in exp(C/(1-x)): ~{slope:.3f} "
      "(fit only, no asserted value)")

print("\n=== derivative bounds |f^(k)(x)| <= psi^(k)(x) for ||f||_2 = 1 ===")
seq = make_geometric(2, 2, 8)
psi8 = PsiEvaluator.from_sequence(seq)
rng = np.random.default_rng(1)
f = random_unit(seq, rng)
f = MuntzPolynomial(seq, f.coefficients / f.l2_norm_lebesgue())
for x in (0.3, 0.6, 0.85):
    b0 = psi8.eval(x, 0).value
    b1 = psi8.eval(x, 1).value
    print(f"  x = {x:4.2f}: |f| = {abs(f(x)):9.4f} <= {b0:9.4f},  "
          f"|f'| = {abs(f.derivative(x)):10.4f} <= {b1:10.4f}")

print("\n=== scaled majorant psi_a and the Hilbert-Schmidt majorant Psi ===")
print("  psi_a identity  psi_a(a x) = a^-1/2 psi(x):",
      psi_a_eval(psi8, 0.5, 0.25).value,
      "=", psi8.eval(0.5).value / math.sqrt(0.5))
for x in (0.1, 0.5, 0.9):
    print(f"  Psi({x:3.1f}) = {big_psi(psi8, x).value:12.4e}")
