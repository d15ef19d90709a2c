"""Characteristic parabolas Q(s) = A + 2sB + s^2 C and their membership tests.

The squared loop lengths of a manifold depend only on the height
s = l0(v) of the base point and assemble into a quadratic matrix
polynomial with symmetric coefficients.  For lattice generators
g_i = lattice e_i the coefficients are Gram matrices with respect to
-ell:

    A = Gram(g_i),  B = Gram(a g_i, g_j),  C = Gram(a g_i, a g_j),

which in canonical coordinates read A = L^T L, B = L^T a' L and
C = L^T (a'^2 + a''^T a'') L with L the lattice matrix.

A parabola is characteristic for some manifold of ambient dimension n
iff Q(s) > 0 for all real s, the Schur complement C - B A^{-1} B is
positive semidefinite of rank r, and m + r + 2 <= n; kernel directions
of C (which must also kill B) split off as an s-independent block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symmat
from .construction import ManifoldData, Signature, gamma_apply
from .errors import (
    DimensionMismatch,
    InvalidCharacteristic,
    NotDegenerate,
    NotPSD,
    SingularA,
)
from .symmat import DEFAULT_TOL


@dataclass(frozen=True)
class MatrixParabola:
    """Coefficient triple (A, B, C) of equal order, symmetrized on entry."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = symmat.symmetrize(symmat.require_finite(self.A, "A"))
        B = symmat.symmetrize(symmat.require_finite(self.B, "B"))
        C = symmat.symmetrize(symmat.require_finite(self.C, "C"))
        if B.shape != A.shape or C.shape != A.shape:
            raise DimensionMismatch(
                f"coefficient shapes differ: {A.shape}, {B.shape}, {C.shape}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def dim(self):
        return self.A.shape[0]

    def __call__(self, s):
        """Evaluate Q(s) = A + 2sB + s^2 C."""
        return self.A + 2.0 * s * self.B + s * s * self.C

    def coeff_scale(self):
        """1 + largest absolute entry across the three coefficients."""
        return 1.0 + max(
            symmat.max_norm(self.A), symmat.max_norm(self.B), symmat.max_norm(self.C)
        )

    def close_to(self, other, tol=DEFAULT_TOL):
        """Coefficient-wise comparison at tol relative to this parabola."""
        if other.dim != self.dim:
            return False
        bound = tol * self.coeff_scale()
        return (
            symmat.max_norm(self.A - other.A) <= bound
            and symmat.max_norm(self.B - other.B) <= bound
            and symmat.max_norm(self.C - other.C) <= bound
        )


@dataclass(frozen=True)
class SchurResult:
    """The matrix C - B A^{-1} B with its PSD verdict and rank."""

    matrix: np.ndarray
    psd: bool
    rank: int


@dataclass(frozen=True)
class ReductionResult:
    """Congruence X splitting off the s-independent block.

    X^T Q(s) X = blockdiag(constant_block, reduced(s)) with the constant
    block of size k = dim ker C.
    """

    X: np.ndarray
    constant_block: np.ndarray
    reduced: MatrixParabola


def char_polynomial(M: ManifoldData) -> MatrixParabola:
    """Extract the characteristic parabola of manifold data."""
    L = M.lattice
    a_sq = M.a_prime @ M.a_prime + M.a_dblprime.T @ M.a_dblprime
    return MatrixParabola(
        L.T @ L,
        L.T @ M.a_prime @ L,
        L.T @ a_sq @ L,
    )


def q_direct(M: ManifoldData, z, v):
    """Squared loop length -ell(gamma_x(v) - v, gamma_x(v) - v).

    z holds the (integer) lattice coordinates of the loop x = lattice z;
    the value depends on v only through l0(v) and equals the quadratic
    form of Q(l0(v)) at z.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (M.m,):
        raise DimensionMismatch(f"lattice coordinates must have length {M.m}, got {z.shape}")
    x = M.lattice @ z
    w = gamma_apply(M, x, v) - np.asarray(v, dtype=float)
    return -M.frame.ell(w, w)


def check_positive_all_s(P: MatrixParabola, tol=DEFAULT_TOL):
    """Whether Q(s) is positive definite for every real s.

    Equivalent to Q(0) = A being definite together with Q(s) never
    becoming singular for real s (eigenvalues move continuously in s).
    The singular points come from a linearization rather than from the
    determinant polynomial: with B~ = A^{-1/2} B A^{-1/2} and
    C~ = A^{-1/2} C A^{-1/2}, Q(1/mu) is singular exactly when mu is an
    eigenvalue of the 2m x 2m companion matrix [[0, I], [-C~, -2B~]].
    The minimum eigenvalue of Q(1/Re mu) must clear the band
    tol * (1 + max|Q(s)|) for every mu with
    |Re mu| > tol * (1 + max(max|B~|, max|C~|)); smaller mu are singular
    points at s = infinity.  A tangency, where rounding splits a real
    double eigenvalue into a complex pair, is still caught because
    every real part is tested, and testing extra points is safe since
    the check only ever evaluates Q.  Verdicts inside the band resolve
    to False (strictness preserved).
    """
    if not symmat.is_pd(P.A, tol):
        return False
    inv_root = symmat.pd_inv_sqrt(P.A, tol)
    B = inv_root @ P.B @ inv_root
    C = inv_root @ P.C @ inv_root
    m = P.dim
    companion = np.block([[np.zeros((m, m)), np.eye(m)], [-C, -2.0 * B]])
    floor = tol * (1.0 + max(symmat.max_norm(B), symmat.max_norm(C)))
    mu = np.linalg.eigvals(companion)
    mu = mu.real[mu.imag >= 0.0]  # one of each conjugate pair
    for s in 1.0 / mu[np.abs(mu) > floor]:
        q_s = P(float(s))
        if symmat.sym_eig(q_s).values[0] <= tol * (1.0 + symmat.max_norm(q_s)):
            return False
    return True


def schur_condition(P: MatrixParabola, tol=DEFAULT_TOL) -> SchurResult:
    """Evaluate D = C - B A^{-1} B together with is_psd and rank.

    D is formed as C - (A^{-1/2} B)^T (A^{-1/2} B) so that symmetry is
    automatic.  A inside the singularity band raises SingularA; a
    genuinely negative eigenvalue of A raises NotPSD since no real
    inverse root exists.
    """
    inv_root = symmat.pd_inv_sqrt(P.A, tol)
    if inv_root is None:
        raise SingularA("constant coefficient A is singular at this tolerance")
    half = inv_root @ P.B
    D = symmat.symmetrize(P.C - half.T @ half)
    return SchurResult(D, symmat.is_psd(D, tol), symmat.rank_tol(D, tol))


def reduce_degenerate(P: MatrixParabola, tol=DEFAULT_TOL) -> ReductionResult:
    """Split off the kernel of C as an s-independent diagonal block.

    The congruence is X = [U | V] with U an orthonormal kernel basis of
    C and V a basis of the A-orthogonal complement {w : U^T A w = 0}; a
    parabola that comes from a manifold has ker C inside ker B (those
    directions act by pure translations), so B U must vanish.
    """
    values, vectors = symmat.sym_eig(P.C)
    band = tol * (1.0 + symmat.max_norm(P.C))
    kernel = np.abs(values) <= band
    k = int(np.sum(kernel))
    if k == 0:
        raise NotDegenerate("C has full rank; nothing to reduce")
    U = vectors[:, kernel]
    if symmat.max_norm(P.B @ U) > tol * (1.0 + symmat.max_norm(P.B)):
        raise InvalidCharacteristic(
            "B does not vanish on ker C; no manifold produces this parabola"
        )
    _, _, vh = np.linalg.svd(U.T @ P.A)
    V = vh[k:].T
    X = np.hstack([U, V])
    constant = symmat.congruence(P.A, U)
    reduced = MatrixParabola(
        symmat.congruence(P.A, V),
        symmat.congruence(P.B, V),
        symmat.congruence(P.C, V),
    )
    result = ReductionResult(X, constant, reduced)
    _verify_reduction(P, result, tol)
    return result


def _verify_reduction(P, result, tol):
    k = result.constant_block.shape[0]
    for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
        full = symmat.congruence(P(s), result.X)
        expect = np.zeros_like(full)
        expect[:k, :k] = result.constant_block
        expect[k:, k:] = result.reduced(s)
        bound = tol * (1.0 + symmat.max_norm(full))
        if symmat.max_norm(full - expect) > bound:
            raise InvalidCharacteristic(
                f"reduction is not block-diagonal at s={s:g}"
            )


def _is_elliptic(P: MatrixParabola, tol):
    bound = tol * P.coeff_scale()
    return symmat.max_norm(P.B) <= bound and symmat.max_norm(P.C) <= bound


def is_characteristic(P: MatrixParabola, n, tol=DEFAULT_TOL):
    """Decide membership among characteristic parabolas at dimension n.

    Returns (verdict, signature); the signature is None on rejection.
    Degenerate C is reduced first, contributing k = m - rank C; the
    elliptic point B = C = 0 is accepted whenever A is definite and
    m + 2 <= n.  Nonelliptic parabolas must report r >= 1.
    """
    m = P.dim
    if _is_elliptic(P, tol):
        if m + 2 <= n and symmat.is_pd(P.A, tol):
            return True, Signature(n, m, 0, m)
        return False, None
    try:
        red = reduce_degenerate(P, tol)
    except InvalidCharacteristic:
        return False, None
    except NotDegenerate:
        pass
    else:
        k = red.constant_block.shape[0]
        if red.reduced.dim == 0 or not symmat.is_pd(red.constant_block, tol):
            return False, None
        # The reduced parabola is tested at n - k, which enforces m + r + 2 <= n.
        ok, sub = is_characteristic(red.reduced, n - k, tol)
        if not ok or sub.k != 0:
            return False, None
        return True, Signature(n, m, sub.r, k)
    if not check_positive_all_s(P, tol):
        return False, None
    try:
        schur = schur_condition(P, tol)
    except (SingularA, NotPSD):
        return False, None
    if not schur.psd or schur.rank == 0:
        return False, None
    if m + schur.rank + 2 > n:
        return False, None
    return True, Signature(n, m, schur.rank, 0)
