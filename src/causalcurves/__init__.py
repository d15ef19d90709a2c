"""Flat complete strictly causal Lorentzian manifolds with unipotent
holonomy, classified through matrix parabolas in the positive-definite
cone.

The library builds manifold data from frame parameters, extracts the
characteristic parabola Q(s) = A + 2sB + s^2 C of squared loop lengths,
decides which parabolas arise this way, reconstructs manifold data from
valid parabolas, and tests (almost) causal isometry through congruence
certificates and spectral invariants.
"""

import importlib
import sys

__version__ = "0.1.0"

#: Every public name, by the module that defines it.  A name is looked up
#: in its module on each use (PEP 562), and the module is imported on
#: first use, so ``import causalcurves`` loads no library code and a
#: function rebound in its module is the one the package returns.
_EXPORTS = {
    "charpoly": (
        "MatrixParabola", "ParabolaAnalysis", "ReductionResult", "SchurResult", "char_polynomial",
        "check_positive_all_s", "is_characteristic", "q_direct", "reduce_degenerate", "schur_condition",
    ),
    "classify": (
        "AffineSpectrum", "AlmostVerdict", "EquivalenceCertificate", "SimpleSpectrumForm", "affine_spectrum",
        "almost_equivalent", "apply_certificate", "identity_certificate", "realize", "reparametrize",
        "search_certificate", "simple_spectrum_form", "verify_equivalence",
    ),
    "construction": (
        "ManifoldData", "Signature", "a_vector", "build", "check_free", "euclidean_factor_dim", "example_4d",
        "example_5d", "gamma_apply", "lambda_of", "recover_a_from_holonomy", "signature_of", "tau_of",
    ),
    "errors": (
        "BadCertificate", "CausalCurvesError", "CSingular", "DimensionMismatch", "FreenessViolated",
        "InconsistentHolonomy", "InvalidCharacteristic", "NonFiniteInput", "NotCharacteristic",
        "NotDegenerate", "NotPositiveDefinite", "NotPSD", "NotSimpleSpectrum", "NotSymmetric",
        "RankDeficientR", "SignatureInconsistent", "SingularA", "UnsupportedDimension", "ZeroParameter",
        "ZeroPolynomial",
    ),
    "minkowski": ("LorentzFrame",),
    "symmat": (
        "DEFAULT_TOL", "EigenDecomposition", "congruence", "det_poly", "is_pd", "psd_sqrt", "real_roots",
        "sym_eig", "symmetrize",
    ),
}
_ORIGIN = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset([*_EXPORTS, "cli"])

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    origin = _ORIGIN.get(name)
    if origin is not None:
        module = sys.modules.get(origin) or importlib.import_module(origin)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
