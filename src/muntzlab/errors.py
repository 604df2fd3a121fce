"""Exception hierarchy.

All library errors derive from :class:`MuntzLabError` so callers can
distinguish them from built-in errors.  A certificate whose hypothesis
fails raises none of them: it records the failed assumption and the value
+inf (``spectral.Certificate``).
"""


class MuntzLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(MuntzLabError, ValueError):
    """An argument is outside its documented domain."""


class QuasilacunarityNotWitnessedError(MuntzLabError):
    """The greedy block search cannot witness quasilacunarity at this truncation."""


class HypothesisViolationError(MuntzLabError):
    """A stated hypothesis failed its verification grid, so the conclusion
    cannot be asserted."""


class IllConditionedBasisError(MuntzLabError):
    """The forward-error estimate cond(B) * 2^-53 of a double-precision
    spectrum exceeds its stated tolerance (``spectral.FORWARD_ERROR_TOL``).

    Reduce the truncation instead of regularizing silently.
    """


class NumericalSoundnessError(MuntzLabError):
    """An internal consistency floor was breached (e.g. an eigenvalue far
    below zero), indicating broken quadrature or assembly rather than
    ordinary rounding."""


class ConstructionError(MuntzLabError):
    """A recursive construction search failed to terminate."""


class ConstructionBugError(MuntzLabError):
    """A recorded construction inequality does not hold.

    Carries the offending index and residual.
    """

    def __init__(self, message, n=None, residual=None):
        super().__init__(message)
        self.n = n
        self.residual = residual


class UndefinedRatioError(MuntzLabError):
    """A ratio of sup-norms is undefined (zero polynomial)."""
