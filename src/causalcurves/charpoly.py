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

Every criterion reads one :class:`ParabolaAnalysis` per parabola and
tolerance: A^{-1/2}, the gauged coefficients B~ and C~, the eigenpairs
of G = C~ - B~^2 and of C, each computed once, and the reduction of a
degenerate C built from those eigenpairs.  ``is_characteristic``
returns that analysis with its verdict, so ``realize``,
``almost_equivalent`` and the CLI read it instead of decomposing again;
``check_positive_all_s``, ``schur_condition`` and ``reduce_degenerate``
are views of a fresh analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import symmat
from .construction import ManifoldData, Signature, gamma_apply
from .errors import (
    DimensionMismatch,
    InvalidCharacteristic,
    NotDegenerate,
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


class ParabolaAnalysis:
    """The decompositions of one parabola that every criterion reads.

    In the gauge of A^{-1/2} the parabola is a sum of squares

        Q(s) = A^{1/2} ((I + s B~)^2 + s^2 G) A^{1/2},   G = C~ - B~^2,

    with B~ = A^{-1/2} B A^{-1/2} and C~ = A^{-1/2} C A^{-1/2}.
    Positivity, the Schur condition, the reduction of a degenerate C,
    realization and the equivalence invariants all read A^{-1/2}, B~,
    C~, the eigenpairs of G and those of C.  Each attribute is computed
    on first use and kept; the gauge attributes need A positive definite
    (``inv_root`` not None).
    """

    def __init__(self, P: MatrixParabola, tol=DEFAULT_TOL):
        self.P = P
        self.tol = tol

    @cached_property
    def inv_root(self):
        """A^{-1/2}, or None when A is not positive definite."""
        return symmat.pd_inv_sqrt(self.P.A, self.tol)

    @cached_property
    def root(self):
        """A^{1/2}, as A A^{-1/2}."""
        return symmat.symmetrize(self.P.A @ self.inv_root)

    @cached_property
    def B_t(self):
        return symmat.congruence(self.P.B, self.inv_root)

    @cached_property
    def C_t(self):
        return symmat.congruence(self.P.C, self.inv_root)

    @cached_property
    def g_eig(self):
        """Eigenpairs of G = C~ - B~^2."""
        return symmat.sym_eig(self.C_t - self.B_t @ self.B_t)

    @cached_property
    def c_eig(self):
        return symmat.sym_eig(self.P.C)

    @cached_property
    def kernel(self):
        """Mask of the eigenvalues of C inside the band tol * max|C|."""
        return np.abs(self.c_eig.values) <= self.tol * symmat.max_norm(self.P.C)

    @cached_property
    def reduction(self):
        """The :class:`ReductionResult` splitting off ker C, None when C
        has full rank.

        The congruence is X = [U | V] with U the eigenvectors of C on
        the ``kernel`` mask and V a basis of the A-orthogonal complement
        {w : U^T A w = 0}; a parabola that comes from a manifold has
        ker C inside ker B (those directions act by pure translations),
        so B U must vanish, else InvalidCharacteristic.
        """
        P, tol, kernel = self.P, self.tol, self.kernel
        if not kernel.any():
            return None
        U = self.c_eig.vectors[:, kernel]
        if symmat.max_norm(P.B @ U) > tol * (1.0 + symmat.max_norm(P.B)):
            raise InvalidCharacteristic(
                "B does not vanish on ker C; no manifold produces this parabola"
            )
        _, _, vh = np.linalg.svd(U.T @ P.A)
        V = vh[U.shape[1] :].T
        reduced = MatrixParabola(*(symmat.congruence(S, V) for S in (P.A, P.B, P.C)))
        result = ReductionResult(np.hstack([U, V]), symmat.congruence(P.A, U), reduced)
        _verify_reduction(P, result, tol)
        return result

    @cached_property
    def reduced(self):
        """The analysis of the reduced parabola."""
        return ParabolaAnalysis(self.reduction.reduced, self.tol)

    @cached_property
    def positive(self):
        """Whether Q(s) is positive definite for every real s.

        Equivalent to Q(0) = A being definite together with Q(s) never
        becoming singular for real s (eigenvalues move continuously in
        s).  Q(1/mu) is singular exactly when mu is an eigenvalue of the
        2m x 2m linearization [[0, I], [-C~, -2B~]].  One batched
        eigvalsh over the stacked Q(1/Re mu) then requires
        lambda_min(Q(1/Re mu)) > tol * (1 + max|Q(1/Re mu)|) for every
        mu with |Re mu| > tol * (1 + max(max|B~|, max|C~|)); smaller mu
        are singular points at s = infinity.  A tangency, where rounding
        splits a real double eigenvalue into a complex pair, is still
        caught because every real part is tested, and testing extra
        points is safe since the check only ever evaluates Q.  Verdicts
        inside the band resolve to False (strictness preserved).
        """
        if self.inv_root is None:
            return False
        B, C, m = self.B_t, self.C_t, self.P.dim
        companion = np.block([[np.zeros((m, m)), np.eye(m)], [-C, -2.0 * B]])
        floor = self.tol * (1.0 + max(symmat.max_norm(B), symmat.max_norm(C)))
        mu = np.linalg.eigvals(companion)
        mu = mu.real[mu.imag >= 0.0]  # one of each conjugate pair
        q = self.P(1.0 / mu[np.abs(mu) > floor, None, None])
        band = self.tol * (1.0 + np.max(np.abs(q), axis=(1, 2), initial=0.0))
        return bool(np.all(np.linalg.eigvalsh(q) > band[:, None]))

    @cached_property
    def schur(self) -> SchurResult:
        """D = C - B A^{-1} B with the PSD verdict and rank of G.

        D = A^{1/2} G A^{1/2} is congruent to G, so both are read from
        the eigenvalues of G, against the purely relative band
        tol * max(max|C~|, max|B~|^2): both terms scale like G, by
        alpha^2 under s -> alpha s, where a band with an absolute term
        swallows genuine eigenvalues once alpha is small.  D is
        formed as C - (A^{-1/2} B)^T (A^{-1/2} B).  Raises SingularA
        unless A is positive definite.
        """
        if self.inv_root is None:
            raise SingularA("constant coefficient A is not positive definite at this tolerance")
        values = self.g_eig.values
        band = self.tol * max(symmat.max_norm(self.C_t), symmat.max_norm(self.B_t) ** 2)
        half = self.inv_root @ self.P.B
        D = symmat.symmetrize(self.P.C - half.T @ half)
        return SchurResult(D, bool(np.all(values >= -band)), int(np.sum(np.abs(values) > band)))


class MembershipVerdict(tuple):
    """(ok, signature) from :func:`is_characteristic`, with its analysis.

    Unpacks, indexes and compares as the pair; ``analysis`` is the
    :class:`ParabolaAnalysis` the verdict read, for callers to reuse.
    """

    def __new__(cls, ok, signature, analysis):
        verdict = super().__new__(cls, (ok, signature))
        verdict.analysis = analysis
        return verdict


def check_positive_all_s(P: MatrixParabola, tol=DEFAULT_TOL):
    """Whether Q(s) is positive definite for every real s
    (:attr:`ParabolaAnalysis.positive`)."""
    return ParabolaAnalysis(P, tol).positive


def schur_condition(P: MatrixParabola, tol=DEFAULT_TOL) -> SchurResult:
    """D = C - B A^{-1} B with its PSD verdict and rank
    (:attr:`ParabolaAnalysis.schur`); raises SingularA unless A is
    positive definite."""
    return ParabolaAnalysis(P, tol).schur


def reduce_degenerate(P: MatrixParabola, tol=DEFAULT_TOL) -> ReductionResult:
    """Split off the kernel of C as an s-independent diagonal block
    (:attr:`ParabolaAnalysis.reduction`); raises NotDegenerate when C
    has full rank and InvalidCharacteristic when B does not vanish on
    ker C."""
    result = ParabolaAnalysis(P, tol).reduction
    if result is None:
        raise NotDegenerate("C has full rank; nothing to reduce")
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


def _decide(analysis, n):
    """(ok, signature) of the membership criteria, read from ``analysis``."""
    P, m = analysis.P, analysis.P.dim
    bound = analysis.tol * P.coeff_scale()
    if symmat.max_norm(P.B) <= bound and symmat.max_norm(P.C) <= bound:  # elliptic point
        if m + 2 <= n and analysis.inv_root is not None:
            return True, Signature(n, m, 0, m)
        return False, None
    try:
        red = analysis.reduction
    except InvalidCharacteristic:
        return False, None
    if red is not None:
        k = red.constant_block.shape[0]
        if red.reduced.dim == 0 or not symmat.is_pd(red.constant_block, analysis.tol):
            return False, None
        # The reduced parabola is tested at n - k, which enforces m + r + 2 <= n.
        ok, sub = _decide(analysis.reduced, n - k)
        if not ok or sub.k != 0:
            return False, None
        return True, Signature(n, m, sub.r, k)
    schur = analysis.schur if analysis.positive else None
    if schur is None or not schur.psd or schur.rank == 0 or m + schur.rank + 2 > n:
        return False, None
    return True, Signature(n, m, schur.rank, 0)


def is_characteristic(P: MatrixParabola, n, tol=DEFAULT_TOL):
    """Decide membership among characteristic parabolas at dimension n.

    Returns a :class:`MembershipVerdict` (ok, signature); the signature
    is None on rejection, and ``.analysis`` holds the parabola's
    :class:`ParabolaAnalysis` (with the reduction and the reduced
    parabola's analysis on degenerate input).  Degenerate C is reduced
    first, contributing k = m - rank C; the elliptic point B = C = 0 is
    accepted whenever A is definite and m + 2 <= n.  Nonelliptic
    parabolas must report r >= 1.
    """
    analysis = ParabolaAnalysis(P, tol)
    return MembershipVerdict(*_decide(analysis, n), analysis)

