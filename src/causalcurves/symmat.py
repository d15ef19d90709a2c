"""Dense linear algebra for small symmetric matrices.

Everything downstream (positivity of matrix parabolas, Schur criteria,
reconstruction) reduces to eigenvalues of symmetric matrices of order
m <= ~10.  Matrices are plain float ndarrays; polynomials are coefficient
arrays in ascending degree order (numpy's polynomial convention).

There is one eigen kernel: :func:`sym_eig` calls LAPACK's symmetric
solver through the gufuncs that ``numpy.linalg.eigh`` and ``eigvalsh``
wrap (their Python wrappers cost more than LAPACK does at m <= 8), and
every symmetric eigenproblem of the package, here and in the criteria,
goes through it, reading S as given: each matrix is symmetrized once,
where it is formed.  There is one SVD kernel next to it:
:func:`singular_values` calls the gufunc behind
``numpy.linalg.svd(X, compute_uv=False)`` the same way, and every SVD
of the package goes through it (the singularity check of an
equivalence certificate, and the lattice, a'', freeness and signature
tests of ``construction``).  There is one
congruence kernel: :func:`congruence` forms X^T S X, exactly
symmetric, everywhere in the package but one place, the integer
certificate search, whose candidates' images are one product of the
entries of S with a table of Kronecker squares (``classify``),
symmetrized in the same form; it and :func:`symmetrize` take one
matrix or stacks.  Real roots of scalar polynomials come from the
eigenvalues of the companion matrix (``numpy.polynomial``, imported on
first use: no verdict reads them), clustered so that a multiple root
is reported once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPSD,
    ZeroPolynomial,
)

#: Relative tolerance used by every predicate unless overridden per call.
DEFAULT_TOL = 1e-9

_COEFF_TRIM_REL = 1e-10
#: Computed roots closer than this (relative to max(1, |root|)) are one
#: root: a root of multiplicity k scatters by about eps**(1/k), which is
#: 2.4e-4 for k = 4.
_ROOT_CLUSTER_REL = 1e-3


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def as_square(S, name="matrix"):
    """Return ``S`` as a float array, insisting it is square 2-D."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"{name} must be square 2-D, got shape {S.shape}")
    return S


def symmetrize(S):
    """Exactly symmetric copy of a square matrix, or of a stack of them
    on the leading axes: S/2 + S^T/2, halved before adding so that no
    finite entry overflows."""
    half = 0.5 * np.asarray(S, dtype=float)
    if half.ndim < 2 or half.shape[-1] != half.shape[-2]:
        raise DimensionMismatch(f"matrix must be square, got shape {half.shape}")
    return half + half.swapaxes(-1, -2)


def max_norm(S):
    """Largest absolute entry; the scale used by relative tolerances."""
    S = np.asarray(S, dtype=float)
    return 0.0 if S.size == 0 else float(np.abs(S).max())


def require_finite(S, name="matrix"):
    """Return ``S`` as a float array, raising NonFiniteInput on NaN or inf."""
    S = np.asarray(S, dtype=float)
    if not np.isfinite(S).all():
        raise NonFiniteInput(f"{name} has non-finite entries")
    return S


def sym_eig(S, vectors=True):
    """Eigendecomposition of a symmetric matrix, or of a stack of them on
    the leading axes, by LAPACK (``syevd``), which reads S as given (its
    lower triangle): pass symmetrize(S) for a computed S that rounding
    may leave asymmetric.  With ``vectors=False`` only the ascending
    eigenvalues are computed and returned.

    Calls the gufuncs ``eigh_lo`` and ``eigvalsh_lo`` of
    ``numpy.linalg._umath_linalg`` directly, so the results are those of
    ``numpy.linalg.eigh`` and ``eigvalsh`` bit for bit.  The one check of
    their wrappers that can fire is kept: where LAPACK does not converge
    the gufunc fills that matrix's output with NaN, and this raises
    LinAlgError (as it does for NaN input)."""
    if vectors:
        values, V = _umath_linalg.eigh_lo(S, signature="d->dd")
    else:
        values = _umath_linalg.eigvalsh_lo(S, signature="d->d")
    # A sum of squares is NaN exactly when an entry is.
    if math.isnan(np.vdot(values, values)):
        raise LinAlgError("Eigenvalues did not converge")
    return EigenDecomposition(values, V) if vectors else values


def singular_values(X):
    """Singular values of a matrix, or of a stack of them on the leading
    axes, in descending order, by LAPACK (``gesdd``) through the gufunc
    ``svd`` of ``numpy.linalg._umath_linalg`` that
    ``numpy.linalg.svd(X, compute_uv=False)`` wraps, so the values are
    its values bit for bit.  As in :func:`sym_eig`, a NaN in the output
    (LAPACK did not converge, or X was not finite) raises LinAlgError;
    no errstate is entered, so where LAPACK flags an invalid operation
    numpy first reports it as the caller's errstate says (by default a
    RuntimeWarning)."""
    values = _umath_linalg.svd(X, signature="d->d")
    if math.isnan(np.vdot(values, values)):
        raise LinAlgError("SVD did not converge")
    return values


def is_pd(S, tol=DEFAULT_TOL):
    """Strict positive definiteness: min eigenvalue > tol * max|S|.

    Verdicts inside the tolerance band resolve to False; boundary cases
    never count as definite.
    """
    S = symmetrize(S)
    if S.size == 0:
        return True
    values, _ = sym_eig(S)
    return bool(values[0] > tol * max_norm(S))


def psd_sqrt(S, tol=DEFAULT_TOL):
    """Nonnegative square root of a PSD matrix.

    Eigenvalues in [-tol * max|S|, 0) are clamped to zero; anything more
    negative raises :class:`NotPSD`.
    """
    S = symmetrize(S)
    values, vectors = sym_eig(S)
    floor = -tol * max_norm(S)
    if values[0] < floor:
        raise NotPSD(
            f"matrix has negative eigenvalue {values[0]:.3e} beyond tolerance"
        )
    clamped = np.clip(values, 0.0, None)
    return congruence(np.diag(np.sqrt(clamped)), vectors.T)


def pd_inv_sqrt(S, tol=DEFAULT_TOL):
    """Inverse square root of a positive definite matrix.

    Returns None unless S is positive definite in the sense of
    :func:`is_pd` (min eigenvalue > tol * max|S|); callers
    translate None into their own error (SingularA, CSingular, ...).
    """
    S = symmetrize(S)
    values, vectors = sym_eig(S)
    if np.any(values <= tol * max_norm(S)):
        return None
    return congruence(np.diag(values ** -0.5), vectors.T)


def clusters(values, band):
    """Slices of the runs of ascending ``values`` whose neighbours lie
    within ``band`` of each other (single linkage): the eigenvalue
    clusters that are tested or rotated as one eigenspace."""
    cuts = [0, *(np.flatnonzero(values[1:] - values[:-1] > band) + 1), len(values)]
    return [slice(i, j) for i, j in zip(cuts[:-1], cuts[1:])]


def congruence(S, X):
    """symmetrize(X^T S X): the one congruence kernel of the package (the
    integer certificate search forms its candidates' images by a table
    product instead).

    X may be rectangular (m x p), and S and X may be stacks on their
    leading axes, which broadcast; the last two axes are the matrices.
    A symmetric S is used as given (an antisymmetric part cancels)."""
    S = np.asarray(S, dtype=float)
    X = np.asarray(X, dtype=float)
    if S.ndim < 2 or X.ndim < 2 or not S.shape[-1] == S.shape[-2] == X.shape[-2]:
        raise DimensionMismatch(f"congruence needs square S and X with as many rows: {S.shape}, {X.shape}")
    half = X.swapaxes(-1, -2) @ S @ X
    half *= 0.5
    return half + half.swapaxes(-1, -2)


def trim_poly(coeffs, rel_tol=_COEFF_TRIM_REL):
    """Drop leading coefficients below rel_tol * max|coeff|.

    Returns the all-zero polynomial as the single coefficient [0.0].
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    top = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    if top == 0.0:
        return np.zeros(1)
    cut = rel_tol * top
    deg = coeffs.size - 1
    while deg > 0 and abs(coeffs[deg]) <= cut:
        deg -= 1
    out = coeffs[: deg + 1].copy()
    if out.size == 1 and abs(out[0]) <= cut:
        return np.zeros(1)
    return out


def is_zero_poly(coeffs):
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    return bool(np.all(coeffs == 0.0))


def det_poly(A, B, C):
    """Coefficients of p(s) = det(A + 2sB + s^2 C), ascending order.

    The degree is at most 2m, so the polynomial is recovered exactly
    from determinant values at the 2m+1 integer nodes -m..m by Newton
    divided differences; coefficients are then trimmed at
    1e-10 * max|coeff|.
    """
    import numpy.polynomial.polynomial as npoly
    A = symmetrize(A)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if B.shape != A.shape or C.shape != A.shape:
        raise DimensionMismatch(
            f"coefficient shapes differ: {A.shape}, {B.shape}, {C.shape}"
        )
    m = A.shape[0]
    nodes = np.arange(-m, m + 1, dtype=float)
    values = np.array(
        [np.linalg.det(A + 2.0 * s * B + s * s * C) for s in nodes]
    )
    # Divided-difference table, then expansion of the Newton form.
    dd = values.copy()
    for j in range(1, nodes.size):
        dd[j:] = (dd[j:] - dd[j - 1 : -1]) / (nodes[j:] - nodes[: -j])
    poly = np.array([dd[-1]])
    for j in range(nodes.size - 2, -1, -1):
        poly = npoly.polymul(poly, np.array([-nodes[j], 1.0]))
        poly[0] += dd[j]
    return trim_poly(poly)


def poly_eval(coeffs, x):
    import numpy.polynomial.polynomial as npoly
    return npoly.polyval(x, np.asarray(coeffs, dtype=float))


def real_roots(coeffs):
    """Distinct real roots in ascending order.

    The roots are the eigenvalues of the companion matrix; computed
    roots closer than 1e-3 * max(1, |root|) are joined into one cluster
    (single linkage), and each cluster whose mean is real within the
    same distance contributes its mean once.  A multiple root therefore
    comes back once, and more accurately than any of its scattered
    copies.
    """
    import numpy.polynomial.polynomial as npoly
    p = trim_poly(coeffs)
    if is_zero_poly(p):
        raise ZeroPolynomial("cannot find roots of the zero polynomial")
    clusters = []
    for z in npoly.polyroots(p):
        radius = _ROOT_CLUSTER_REL * max(1.0, abs(z))
        near = [c for c in clusters if min(abs(z - w) for w in c) <= radius]
        clusters = [c for c in clusters if all(c is not n for n in near)]
        clusters.append([z, *(w for c in near for w in c)])
    means = [complex(np.mean(c)) for c in clusters]
    return np.sort(
        [z.real for z in means if abs(z.imag) <= _ROOT_CLUSTER_REL * max(1.0, abs(z))]
    )
