"""muntzlab: numerics for Muntz-space embedding operators.

Core objects: exponent sequences (`sequences`), measures on [0,1] with
log-domain moments (`measures`), monomial-system geometry and the psi
majorant (`geometry`), spectral analysis of the truncated embedding with
its certificates (`spectral`), general-p norms and the interpolation check
(`lp`), and the two counterexample constructions (`constructions`).
"""

__version__ = "0.1.0"

from .errors import (ConstructionBugError, ConstructionError,
                     HypothesisViolationError, IllConditionedBasisError,
                     InvalidParameterError, MuntzLabError,
                     NumericalSoundnessError, QuasilacunarityNotWitnessedError,
                     UndefinedRatioError)
from .sequences import (BlockStructure, LacunarityReport, LambdaSequence,
                        classify, find_blocks, make_explicit, make_geometric,
                        make_power, sequence_from_config)
from .measures import (AtomicMeasure, Measure, ModulusReport,
                       PiecewiseDensityMeasure, PowerTailMeasure, ScaledMeasure,
                       SumMeasure, atomic, atomic_from_logs,
                       default_epsilon_grid, lebesgue, measure_from_config,
                       modulus_report, point_mass, restrict_tail,
                       rho_majorization_check)
from .polynomials import MuntzPolynomial, random_unit
from .geometry import (DistanceTable, PsiEvaluator, PsiValue,
                       bernstein_ratio, big_psi, distances, lebesgue_gram,
                       pointwise_bound_check, psi_a_eval, scaled_distance)
from .spectral import (Certificate, EmbeddingProblem, SpectralReport,
                       analyze, compact_support_certificate,
                       essential_norm_trend, hilbert_schmidt_certificate,
                       measure_gram, psi_certificate, rho_certificate,
                       riesz_sequence_check, singular_values,
                       sublinear_embedding_bound)
from .lp import (LpNormEstimate, certified_embedding_constant,
                 empirical_embedding_constant, interpolation_check,
                 interpolation_checks, l1_unboundedness_witness,
                 lebesgue_lp_norm, lp_norm, lp_norms)
from .constructions import (Example1Build, Example2Build, build_example1,
                            build_example2, verify_example1, verify_example2)

__all__ = [name for name in dir() if not name.startswith("_")]
