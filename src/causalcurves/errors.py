"""Domain error taxonomy shared by every module and by the CLI envelope.

Exception class names double as machine-readable error codes: the CLI
reports ``type(exc).__name__`` in its JSON error field, so the names here
are part of the public interface and must stay stable.
"""


class CausalCurvesError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(CausalCurvesError):
    """Operands have incompatible shapes or live in different frames."""


class NonFiniteInput(CausalCurvesError):
    """An input matrix or number holds NaN or infinity, a tolerance lies
    outside [0, inf), or a result of finite input (the coefficients of
    ``reduce_degenerate``) exceeds the float range."""


class NotPositiveDefinite(CausalCurvesError):
    """A matrix required to be positive definite is not."""


class NotPSD(NotPositiveDefinite):
    """A matrix required to be positive semidefinite has a genuinely
    negative eigenvalue (beyond tolerance)."""


class ZeroPolynomial(CausalCurvesError):
    """Root counting was asked for the identically-zero polynomial."""


class NotSymmetric(CausalCurvesError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class FreenessViolated(CausalCurvesError):
    """The affine action is not free: some nonzero eigenvector of the
    self-adjoint part is killed by the transverse part."""

    def __init__(self, message, eigenvalue=None, eigenvector=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.eigenvector = eigenvector


class SignatureInconsistent(CausalCurvesError):
    """The integers (n, m, r, k) violate m+r+2 <= n or r+k <= m."""


class RankDeficientR(CausalCurvesError):
    """The transverse map has rank below the declared number of rows,
    so its target space is not spanned."""


class InconsistentHolonomy(CausalCurvesError):
    """Holonomy matrices do not fix the distinguished null direction or
    recover a map that fails the required symmetry."""


class ZeroParameter(CausalCurvesError):
    """A construction parameter that must be nonzero is zero."""


class SingularA(CausalCurvesError):
    """The constant coefficient of a parabola is singular where it must
    be inverted."""


class NotDegenerate(CausalCurvesError):
    """Degenerate-block reduction was requested for a parabola whose
    quadratic coefficient already has full rank."""


class InvalidCharacteristic(CausalCurvesError):
    """The parabola cannot arise from any manifold (its linear
    coefficient does not vanish on the kernel of the quadratic one)."""


class NotCharacteristic(CausalCurvesError):
    """The parabola fails the membership criteria for characteristic
    curves."""


class CSingular(CausalCurvesError):
    """The quadratic coefficient is singular where it must be inverted."""


class NotSimpleSpectrum(CausalCurvesError):
    """A repeated eigenvalue leaves a normal form's frame undetermined:
    that of the self-adjoint part for the simple-spectrum form, or that
    of H on a cluster of the affine spectrum for ``almost_equivalent``."""


class BadCertificate(CausalCurvesError):
    """An equivalence certificate is malformed (scale not positive,
    singular matrix, or integrality violated where declared)."""


class UnsupportedDimension(CausalCurvesError):
    """The exhaustive certificate search only covers tiny instances."""
