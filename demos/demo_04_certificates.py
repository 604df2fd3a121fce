"""Certificates: named upper bounds for the embedding norm and Schatten sums.

Each certificate records its verified assumptions and soundness flags; a
certificate is comparable against computed norms only when every assumption
holds.  The truncated psi under-estimates the infinite majorant, so the
psi-based values always carry the truncation flag.
"""

from muntzlab import (EmbeddingProblem, PowerTailMeasure, ScaledMeasure,
                      analyze, atomic, compact_support_certificate,
                      hilbert_schmidt_certificate, lebesgue, make_explicit,
                      make_geometric, point_mass, psi_certificate,
                      rho_certificate, sublinear_embedding_bound)


def show(cert, computed=None):
    comp = f", computed = {computed:.6f}" if computed is not None else ""
    print(f"  {cert.kind:22s} value = {cert.value:12.6g}{comp}")
    for a in cert.assumptions:
        print(f"      assumption [{'ok' if a.ok else 'FAILED'}] {a.name}"
              + (f" ({a.detail})" if a.detail else ""))
    if cert.flags:
        print(f"      flags: {', '.join(cert.flags)}")


print("=== rank-1 case: the psi bound is tight ===")
seq1 = make_explicit([1.0])
mu1 = point_mass(0.5)
op = analyze(EmbeddingProblem(seq1, mu1, 1)).op_norm
show(psi_certificate(seq1, mu1), op)

print("\n=== lacunary sequence, power-tail measure, N = 16 ===")
seq = make_geometric(2, 2, 16)
mu = PowerTailMeasure(1.0, 2.0)
problem = EmbeddingProblem(seq, mu, 16)
rep = analyze(problem, q_set=(1.0, 2.0))
show(psi_certificate(seq, mu), rep.op_norm)
# the rho majorant rho(eps) = C eps^alpha is the measure nu with
# nu(J_eps) = rho(eps): the power tail with coefficient C and exponent alpha
show(rho_certificate(seq, mu, PowerTailMeasure(1.0, 2.0)), rep.op_norm)
show(sublinear_embedding_bound(problem), rep.op_norm)

print("\n=== compactly supported atoms: Schatten-class certificates ===")
mu3 = atomic([(0.2, 0.5), (0.35, 0.3), (0.5, 0.2)])
rep3 = analyze(EmbeddingProblem(seq, mu3, 16), q_set=(2.0, 1.0))
for k in (1, 2):
    cert = compact_support_certificate(seq, mu3, 0.5, 0.75, k)
    show(cert, rep3.schatten[2.0 / k])

print("\n=== Hilbert-Schmidt via the Psi integral (finiteness only) ===")
cert = hilbert_schmidt_certificate(seq, mu)
show(cert)
print("  partition masses (first five):",
      [round(m, 6) for _, _, m in cert.params["partition_masses"][:5]])
print("  computed S_2 =", f"{rep.schatten[2.0]:.6f}")

print("\n=== a failed hypothesis is recorded, not hidden ===")
show(rho_certificate(seq, ScaledMeasure(5.0, lebesgue()),
                     PowerTailMeasure(1.0, 1.0)))
