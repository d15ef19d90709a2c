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
of C (which must also kill B) split off as an s-independent block, so
every member reads X^T Q(s) X = blockdiag(K, Q_moving(s)) with k = dim
ker C from 0 to m (the elliptic point B = C = 0, whose moving part is
the 0 x 0 parabola).

Every criterion reads one :class:`ParabolaAnalysis` per parabola and
tolerance, whose attributes are each computed once.  It splits ker C
off once, in its constructor: the eigenvectors U of C on the kernel
band, the one test of B on ker C, and the frames of ker C from the
eigenpairs of the constant block K = U^T A U (``_frames``), which the
C-gauge, ``a_frame``, ``positive``, ``almost_equivalent`` and
:func:`reduce_degenerate` (X = [U | Y]) all read.  Membership is
decided in the C-gauge, for every k: from the eigenpairs of C, of K
(k >= 1 only), of W^T B W and the eigenvalues of H,

    F^T Q(s) F = (s + diag mu)^2 + H,   F^T C F = I,   U^T A F = 0,

with F spanning m - k directions A-orthogonal to ker C.  H has the
inertia of the Schur complement C - B A^{-1} B (both are Schur
complements of [[A, B], [B, C]], and D vanishes on ker C), and given
H >= 0 and K > 0 the parabola is positive for all s iff H is definite
on every eigenspace of diag mu (the Popov-Belevitch-Hautus test, i.e.
freeness).  A k = 0 member thus costs three symmetric
eigendecompositions and a member with constant directions four, plus
one per repeated eigenvalue of mu, with no SVD and no second parabola.
``is_characteristic`` returns the analysis with its verdict, so
``realize``, ``almost_equivalent`` and the CLI read it instead of
decomposing again.  Each criterion has one home on the analysis:
``inertia`` gives PSD-ness and r, and ``positive`` decides Q(s) > 0 in
the C-gauge alone (the constant block and the Hautus test, the
linearization of (s + diag mu)^2 + H where H is indefinite, and an
exact deflation of ker C where B leaks onto it);
``check_positive_all_s`` reads ``positive`` of a fresh analysis.  The
analysis keeps one A-gauge attribute, a frame Z with Z^T A Z = I
(``a_frame``): A^{-1/2} when C has full rank, and otherwise
[U K^{-1/2} | Y (Y^T A Y)^{-1/2}] from the constant block's eigenpairs
and the gauge's moving frame Y, so that within the ker C bands
Z^T Q(s) Z = blockdiag(I, I + 2s B~ + s^2 C~).  ``realize`` forms B~,
C~, G = C~ - B~^2 and the lattice Z^T A from it, ``schur_condition``
the matrix C - (Z^T B)^T (Z^T B), and the CLI the Schur fields where
no C-gauge decides; ``positive`` does not read it.  No verdict and no
realization reads :func:`reduce_degenerate`, and nothing here runs an
SVD.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import symmat
from .construction import ManifoldData, Signature, gamma_apply
from .errors import (
    DimensionMismatch,
    InvalidCharacteristic,
    NonFiniteInput,
    NotDegenerate,
    SingularA,
)
from .minkowski import _integer
from .symmat import DEFAULT_TOL

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True, eq=False, init=False)
class MatrixParabola:
    """Coefficient triple (A, B, C) of equal order ``dim``: the rows of one
    (3, m, m) stack ``coeffs``, checked finite and symmetrized on entry,
    with ``scales`` = (max|A|, max|B|, max|C|) as Python floats, the
    max-norms every band on a whole coefficient reads."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    coeffs: np.ndarray = field(init=False, repr=False)
    dim: int = field(init=False, repr=False)
    scales: tuple = field(init=False, repr=False)

    def __init__(self, A, B, C):
        try:
            coeffs = np.array((A, B, C), dtype=float)
        except ValueError:  # a ragged triple or non-numeric entries
            coeffs = None
        if coeffs is None or coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            _reject_shapes(A, B, C)
        coeffs *= 0.5  # S/2 + S^T/2, halved before adding so that no finite entry overflows
        # The sum of squares is NaN or inf exactly when an entry is, or
        # exceeds 1e154 in magnitude; only then are the entries tested,
        # before an inf and a -inf could meet in the sum (and warn).
        if not math.isfinite(np.vdot(coeffs, coeffs)):
            finite = np.isfinite(coeffs).all(axis=(1, 2)).tolist()
            if not all(finite):
                raise NonFiniteInput(f"{'ABC'[finite.index(False)]} has non-finite entries")
        coeffs = coeffs + coeffs.transpose(0, 2, 1)
        scales = tuple(np.maximum.reduce(np.abs(coeffs), axis=(1, 2), initial=0.0).tolist())
        vars(self).update(coeffs=coeffs, A=coeffs[0], B=coeffs[1], C=coeffs[2], dim=coeffs.shape[1], scales=scales)

    def __call__(self, s):
        """Evaluate Q(s) = A + 2sB + s^2 C."""
        return self.A + 2.0 * s * self.B + s * s * self.C

    def coeff_scale(self):
        """Largest absolute entry across the three coefficients."""
        return max(self.scales)

    def close_to(self, other, tol=DEFAULT_TOL):
        """Coefficient-wise comparison at tol relative to this parabola."""
        return other.dim == self.dim and symmat.max_norm(self.coeffs - other.coeffs) <= tol * self.coeff_scale()


def _reject_shapes(A, B, C):
    """Raise the error of a triple that does not stack as (3, m, m):
    DimensionMismatch unless A is square 2-D and B and C have its shape,
    else numpy's ValueError for entries that are not numbers."""
    A = symmat.as_square(A, "A")
    if np.shape(B) == A.shape == np.shape(C):
        np.array((B, C), dtype=float)  # raises for B's or C's entries
    raise DimensionMismatch(f"coefficient shapes differ: {A.shape}, {np.shape(B)}, {np.shape(C)}")


@dataclass(frozen=True, eq=False)
class SchurResult:
    """The matrix C - B A^{-1} B with its PSD verdict and rank."""

    matrix: np.ndarray
    psd: bool
    rank: int


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Congruence X = [U | Y] splitting off the s-independent block.

    X^T Q(s) X = blockdiag(constant_block, reduced(s)) with the constant
    block of size k = dim ker C; Y is A-orthogonal to ker C but not
    orthonormal.
    """

    X: np.ndarray
    constant_block: np.ndarray
    reduced: MatrixParabola


class CGauge(NamedTuple):
    """The normal form F^T Q(s) F = (s + diag mu)^2 + H of the moving
    directions of a parabola whose C is positive semidefinite, where
    F^T C F = I and F is A-orthogonal to ker C: m x m when C has full
    rank, m x 0 at the elliptic point.

    ``h`` holds the eigenvalues of H in ascending order, and ``size``
    is max(max|F^T A F|, max|mu|^2), the size of the operands
    H = F^T A F - diag(mu^2) is computed from; its bands are tol * size.
    """

    F: np.ndarray
    mu: np.ndarray
    H: np.ndarray
    h: np.ndarray
    size: float


def char_polynomial(M: ManifoldData) -> MatrixParabola:
    """Extract the characteristic parabola of manifold data: the
    congruences of I, a' and a'^2 + a''^T a'' by the lattice matrix."""
    a_sq = M.a_prime @ M.a_prime + M.a_dblprime.T @ M.a_dblprime
    return MatrixParabola(*symmat.congruence(np.stack((np.eye(M.m), M.a_prime, a_sq)), M.lattice))


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

    Membership and equivalence read the C-gauge (:class:`CGauge`): with
    W = Y lambda_c^{-1/2} from the eigenpairs (lambda_c, V_c) of C off
    its kernel band, the eigenpairs (mu, R) of W^T B W and F = W R,

        F^T Q(s) F = (s + diag mu)^2 + H,   H = F^T A F - diag(mu^2).

    Y = V_c when C has full rank.  Otherwise the eigenvectors U of C on
    the band span ker C, B must vanish on ker C, the constant block
    K = U^T A U must be positive definite, and Y = V_c - U K^{-1} U^T A V_c
    is A-orthogonal to ker C, so within the ker C bands Q(s) is
    blockdiag(I, F^T Q(s) F) in the frame [E | F], E^T A E = I
    (``_frames``).  C is the leading coefficient, so the gauge does not
    move under s -> s + beta, and H is the Schur complement of C in
    [[A, B], [B, C]] (in the gauge), with the inertia of
    D = C - B A^{-1} B.  One gauge serves every k:
    no second parabola is formed.  Where an eigenvalue of C, of K or of
    Y^T A Y could overflow, C (for W) or A (for E and ``a_frame``) is
    decomposed in units of an even power of two (:func:`_units`) and the
    frame rescaled exactly.
    The one A-gauge attribute is the frame ``a_frame`` (Z^T A Z = I),
    built from the same U, (kappa, R) and Y, which ``realize``,
    :func:`_schur` and the CLI read; ``positive`` reads E and Y, and
    :func:`reduce_degenerate` U and Y.

    Every criterion reads the eigenpairs of C and the split of ker C
    first, and every consumer but :func:`reduce_degenerate` the C-gauge
    and its inertia, so the constructor sets them: ``_c_units``
    (e, max|C| / 2^e), the eigenvalues of C being read in units of 2^e
    (:func:`_units`); ``c_eig``, the eigenpairs of C in those units;
    ``kernel``, the mask of the eigenvalues inside the band
    tol * max|C|, which leads unless C is indefinite;
    ``_b_vanishes_on_kernel``, the one rule by which B vanishes on
    ker C (every column of B U has a 2-norm within tol * max|B|);
    ``_frames``, the (E, R, Y) of :meth:`_constant_frames`, or None when
    the constant block is singular (both vacuous, True and None, at
    k = 0); ``c_gauge``; and
    ``inertia``, the (PSD, rank) of D = C - B A^{-1} B, read from the
    eigenvalues of H against tol * size, or None without a C-gauge, and
    (True, 0) for a 0 x 0 parabola and for the empty gauge of the
    elliptic point.  D and H are the two Schur complements of
    [[A, B], [B, C]], so with A and C definite they share their
    inertia; D vanishes on ker C, so with C singular H is that of the
    moving directions, and the rank counts them only.  ``a_frame`` and
    ``positive`` are computed on first use and kept.  Raises
    NonFiniteInput unless 0 <= tol < inf.
    """

    def __init__(self, P: MatrixParabola, tol=DEFAULT_TOL):
        self.P, self.tol = P, float(tol)
        if not 0.0 <= self.tol < math.inf:
            raise NonFiniteInput(f"tol must be finite and nonnegative, got {self.tol}")
        self._c_units = _units(P.scales[2], P.dim)
        self.c_eig = values, vectors = symmat.sym_eig(_in_units(P.C, self._c_units[0]))
        self.kernel = kernel = np.abs(values) <= self.tol * self._c_units[1]
        self._b_vanishes_on_kernel, self._frames = True, None  # vacuously, at k = 0
        if k := np.count_nonzero(kernel):
            if kernel[0]:
                # ker C comes first.  U is copied: BLAS rounds a strided
                # slice of the eigenvectors and a copy of it differently.
                U, V = vectors[:, :k].copy(), vectors[:, k:]
            else:  # only an indefinite C has ker C in the middle
                U, V = vectors[:, kernel], vectors[:, ~kernel]
            leak = np.hypot.reduce(P.B @ U, axis=0)  # the 2-norms of the columns of B U
            self._b_vanishes_on_kernel = bool(leak.max() <= self.tol * P.scales[1])
            self._frames = self._constant_frames(U, V)
        self.c_gauge = g = self._c_gauge(k)
        self.inertia = (True, 0) if P.dim == 0 else None if g is None else _inertia(g.h, self.tol * g.size)

    def _c_gauge(self, k):
        """The :class:`CGauge` for ``c_gauge`` at k = dim ker C, or None
        when C has a negative eigenvalue beyond the ``kernel`` band, when
        B does not vanish on ker C (``_b_vanishes_on_kernel``), or when
        the constant block is not positive definite (``_frames`` has no
        E).

        The frame is W = Y lambda_c^{-1/2} from the eigenpairs
        (lambda_c, V_c) of C off the band, with Y the moving frame of
        ``_frames`` (Y = V_c when C has full rank).  At the elliptic
        point (ker C is everything) W has no columns and the gauge is
        empty, with inertia (True, 0).
        """
        P = self.P
        if P.dim == 0:
            return None
        values, vectors = self.c_eig
        if values[0] < 0.0 and not self.kernel[0]:
            return None
        if not k:
            W = vectors / np.sqrt(values)
        else:
            if not self._b_vanishes_on_kernel or self._frames is None or self._frames[0] is None:
                return None
            if k == P.dim:
                return CGauge(np.zeros((k, 0)), np.zeros(0), np.zeros((0, 0)), np.zeros(0), 0.0)
            W = self._frames[2] / np.sqrt(values[k:])
        W = _in_units(W, self._c_units[0] // 2)  # eigenvalues in units of 2^e, e even: exact
        mu, R = symmat.sym_eig(symmat.congruence(P.B, W))
        F = W @ R
        H = symmat.congruence(P.A, F)
        size = max(float(np.abs(H).max()), max(-mu[0].item(), mu[-1].item()) ** 2)
        H.ravel()[:: mu.size + 1] -= mu * mu  # H = F^T A F - diag(mu^2); H is contiguous, so a view
        return CGauge(F, mu, H, symmat.sym_eig(H, vectors=False), size)

    def _constant_frames(self, U, V):
        """(E, R, Y) from the eigenvectors U of C on the ``kernel`` band,
        the others V, and the eigenpairs (kappa, R) of the constant block
        K = U^T A U, or None when K is singular (some |kappa| is within
        tol * max|K|).  The moving frame Y = V - U R kappa^{-1} R^T U^T A V
        is A-orthogonal to ker C.  When K is positive definite (kappa_min
        clears tol * max|K|), E = U R kappa^{-1/2} is the constant frame
        (E^T A E = I) and Y is formed as V - E E^T A V; otherwise E is
        None.  A is read in the units 2^e of :func:`_units`, so that K and
        U^T A V stay finite, and E is rescaled by the exact 2^(-e/2)."""
        exponent = _units(self.P.scales[0], self.P.dim)[0]
        A = _in_units(self.P.A, exponent)
        K = symmat.congruence(A, U)
        kappa, R = symmat.sym_eig(K)
        band = self.tol * symmat.max_norm(K)
        if kappa[0] > band:
            E = (U @ R) / np.sqrt(kappa)
            Y = V - E @ (E.T @ A @ V)
            return _in_units(E, exponent // 2), R, Y
        if np.abs(kappa).min() <= band:
            return None
        G = U @ R
        return None, R, V - (G / kappa) @ (G.T @ A @ V)

    @cached_property
    def a_frame(self):
        """A frame Z with Z^T A Z = I, or None where a block it is built
        from is not positive definite at its own band.

        When C has full rank Z = A^{-1/2} (:func:`symmat.pd_inv_sqrt`).
        Otherwise Z = [U K^{-1/2} | Y (Y^T A Y)^{-1/2}] from the
        ``_frames`` (E, R, Y), with U K^{-1/2} = E R^T, so that
        (Y^T A Y)^{-1/2} is the one decomposition added, read in the
        units of :func:`_units` like K; None when there is no E.  The
        first k columns span ker C, so within the ker C bands
        Z^T Q(s) Z = blockdiag(I, I + 2s B~ + s^2 C~) with
        (B~, C~) = Z_mov^T (B, C) Z_mov on the moving columns Z_mov, and
        Z Z^T = A^{-1}.  At the elliptic point Z = U K^{-1/2}.
        """
        if not self.kernel.any():
            return symmat.pd_inv_sqrt(self.P.A, self.tol)
        if self._frames is None or self._frames[0] is None:
            return None
        E, R, Y = self._frames
        exponent = _units(self.P.scales[0], self.P.dim)[0]
        root = symmat.pd_inv_sqrt(symmat.congruence(_in_units(self.P.A, exponent), Y), self.tol)
        return None if root is None else np.hstack([E @ R.T, _in_units(Y @ root, exponent // 2)])

    @cached_property
    def positive(self):
        """Whether Q(s) is positive definite for every real s, decided in
        the C-gauge alone.

        A 0 x 0 parabola is positive.  With a C-gauge and H positive
        semidefinite, v^T F^T Q(s) F v = |(s + diag mu) v|^2 + v^T H v,
        and within the ker C bands Q(s) is blockdiag(I, F^T Q(s) F) in
        the frame [E | F], so Q(s) is singular for some real s exactly
        when an eigenvector of diag mu lies in ker H: the
        Popov-Belevitch-Hautus test, which is the freeness condition.
        The mu are clustered at tol * max|mu|, and on each cluster
        lambda_min of the H-block must clear the band
        tol * max(max|F^T A F|, max|mu|^2).  When mu is simple (every gap
        clears tol * max|mu|) the blocks are the diagonal entries of H,
        so the test is one comparison of diag H with the band.  The empty
        gauge of the elliptic point leaves the constant block.

        With H indefinite, (s + M)^2 + H (M = diag mu) is singular exactly
        at the real eigenvalues of its linearization [[-M, I], [-H, -M]]
        (Tisseur & Meerbergen, SIAM Review 43(2), 2001), and it is
        definite for large |s|, so lambda_min((s + M)^2 + H) must clear
        tol * max(size, max_j (s + mu_j)^2), the larger of its two terms,
        at the real part of every eigenvalue, in one batched sym_eig.
        Testing every real part catches a tangency that rounding splits
        into a complex pair.

        Without a C-gauge, Q(s) is not positive when C has a negative
        eigenvalue beyond its band, or when the constant block
        K = U^T A U of Q(0) is not definite (``_frames`` has no E).  The
        one case left is B leaking onto ker C, which is deflated: in the
        frame [E | Y], E^T Q(s) E = I + 2s E^T B E, so E^T B E must vanish
        at tol * max|B| times the largest squared column norm of E, and
        then Q(s) > 0 for all s iff the Schur complement of that block,
        the order-(m - k) parabola (Y^T A Y, Y^T B Y, Y^T C Y - 4 N^T N)
        with N = E^T B Y, is positive, decided by its own analysis (the
        order drops at each step, so at most m analyses run).  Q(s) > 0
        does not change under positive scaling, so P is read in units of
        an even power of two at or above max|P| and E rescaled by its
        square root, both exactly, and no entry overflows.

        Verdicts inside a band resolve to False (strictness preserved).
        """
        P, tol = self.P, self.tol
        if P.dim == 0:
            return True
        g = self.c_gauge
        if g is not None and self.inertia[0]:
            if not g.mu.size:
                return True
            mu = g.mu.tolist()
            band = tol * max(-mu[0], mu[-1])
            if all(high - low > band for low, high in zip(mu, mu[1:])):
                floor = tol * g.size
                return min(g.H.diagonal().tolist()) > floor
            cells = symmat.clusters(g.mu, band)
            return all(_lambda_min(g.H[c, c]) > tol * g.size for c in cells)
        if g is not None:
            M, eye = np.diag(g.mu), np.eye(g.mu.size)
            s = np.linalg.eigvals(np.block([[-M, eye], [-g.H, -M]]))
            shifted = np.square(s.real[s.imag >= 0.0, None] + g.mu)  # (s + mu_j)^2 at each tested s
            band = tol * np.maximum(g.size, shifted.max(axis=1))
            return bool(np.all(symmat.sym_eig(g.H + eye * shifted[:, None], vectors=False)[:, 0] > band))
        if not self.kernel[0] or self._frames is None or self._frames[0] is None:
            return False
        (E, _, Y), exponent = self._frames, _units(max(P.scales), math.inf)[0]  # units at every scale
        E, k = _in_units(E, -exponent // 2), E.shape[1]
        T = symmat.congruence(_in_units(P.coeffs, exponent), np.hstack([E, Y]))
        N, band = T[1, :k, k:], tol * math.ldexp(P.scales[1], -exponent) * np.square(E).sum(axis=0).max()
        reduced = MatrixParabola(*T[:2, k:, k:], T[2, k:, k:] - 4.0 * N.T @ N)  # Schur complement of I
        return bool(symmat.max_norm(T[1, :k, :k]) <= band) and ParabolaAnalysis(reduced, tol).positive


def _units(top, m):
    """(e, top / 2^e) for a square S of order m and max-norm top =
    max|S|, to be decomposed in units of 2^e.  e = 0 unless m max|S|,
    which bounds every |eigenvalue| of S and every entry of U^T S V for
    orthonormal U and V, exceeds the float maximum; then e is the even
    exponent at or above that of max|S| (``math.frexp``), so that the
    exactly scaled 2^-e S has finite eigenvalues and congruences, and a
    factor 2^(-e/2) is exact too.  m = inf asks for those units at every
    scale."""
    if m * top <= _FLOAT_MAX:
        return 0, top
    exponent = math.frexp(top)[1]
    exponent += exponent % 2
    return exponent, math.ldexp(top, -exponent)


def _in_units(S, exponent):
    """2^-exponent S, exactly (``np.ldexp``, so 2^1024 may scale back);
    S itself when the exponent is 0."""
    return np.ldexp(S, -exponent) if exponent else S


def _inertia(values, band):
    """(PSD, rank) of a symmetric matrix from its ascending eigenvalues at
    band, compared as Python floats: the lowest must clear -band, and the
    rank counts those above band and those below -band."""
    values = values.tolist()
    rank = len(values) - bisect.bisect_right(values, band) + bisect.bisect_left(values, -band)
    return not values or values[0] >= -band, rank


def _lambda_min(S):
    """Smallest eigenvalue of a symmetric block; a 1 x 1 block is its entry."""
    return S[0, 0] if S.shape[0] == 1 else symmat.sym_eig(S, vectors=False)[0]


def _schur(analysis) -> SchurResult:
    """D = C - B A^{-1} B, formed as C - (Z^T B)^T (Z^T B) from the
    ``a_frame`` Z (Z Z^T = A^{-1}), with its PSD verdict and rank; raises
    SingularA where Z is None (A, or at k >= 1 the constant block or
    the moving block Y^T A Y, is not positive definite at its band).

    As in the membership decision, D vanishes on ker C and its inertia
    is that of H in the C-gauge (:attr:`ParabolaAnalysis.inertia`).
    Where no C-gauge exists (C indefinite, B not vanishing on ker C, or
    a constant block that is not definite), the eigenvalues of D are
    read against tol * max(max|C|, max|Z^T B|^2).
    """
    if analysis.a_frame is None:
        raise SingularA("constant coefficient A is not positive definite at this tolerance")
    P, half = analysis.P, analysis.a_frame.T @ analysis.P.B
    D = symmat.symmetrize(P.C - half.T @ half)
    band = analysis.tol * max(P.scales[2], symmat.max_norm(half) ** 2)
    return SchurResult(D, *(analysis.inertia or _inertia(symmat.sym_eig(D, vectors=False), band)))


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
    (:attr:`ParabolaAnalysis.positive` of a fresh analysis, decided in
    the C-gauge: the constant block and the moving part's Hautus test,
    the linearization of (s + diag mu)^2 + H where H is indefinite, or,
    where B leaks onto ker C, the exact deflation of ker C and the
    positivity of the order-(m - k) Schur complement it leaves, one
    further analysis per step)."""
    return ParabolaAnalysis(P, tol).positive


def schur_condition(P: MatrixParabola, tol=DEFAULT_TOL) -> SchurResult:
    """D = C - B A^{-1} B with its PSD verdict and rank (:func:`_schur`
    of a fresh analysis: the moving part's inertia of H where it has a
    C-gauge); raises SingularA unless the analysis's ``a_frame`` exists."""
    return _schur(ParabolaAnalysis(P, tol))


def reduce_degenerate(P: MatrixParabola, tol=DEFAULT_TOL) -> ReductionResult:
    """Split off the kernel of C as an s-independent block: the
    congruence X = [U | Y] from the analysis's ``_frames``, with U the
    eigenvectors of C on the ``kernel`` band and Y the moving frame,
    A-orthogonal to ker C but not orthonormal.  One stacked product
    T = X^T [A, B, C] X gives the constant block K = U^T A U (its k x k
    corner of T_A) and the reduced parabola (the trailing blocks).

    Raises NotDegenerate when C has full rank, and InvalidCharacteristic
    when B does not vanish on ker C (``_b_vanishes_on_kernel``: a
    parabola that comes from a manifold has ker C inside ker B, those
    directions acting by pure translations), when K is singular, or when
    :func:`_verify_reduction` finds a block that should vanish.  Where
    X^T S X could overflow (m max|P| times the largest squared column
    norm of X exceeds the float maximum), T is formed and verified in
    the units 2^e of :func:`_units`, exactly, and scaled back; raises
    NonFiniteInput when a coefficient of T itself exceeds the float
    range."""
    analysis = ParabolaAnalysis(P, tol)
    kernel = analysis.kernel
    if not kernel.any():
        raise NotDegenerate("C has full rank; nothing to reduce")
    if not analysis._b_vanishes_on_kernel:
        raise InvalidCharacteristic("B does not vanish on ker C; no manifold produces this parabola")
    if analysis._frames is None:
        raise InvalidCharacteristic("the constant block U^T A U on ker C is singular")
    k = np.count_nonzero(kernel)
    X = np.hstack([analysis.c_eig.vectors[:, kernel], analysis._frames[2]])
    # X is an operand of T and Y is not orthonormal: the bands scale with
    # the largest squared column norm of X (1 on U, at least 1 on Y), and
    # so does max|T|, which P is read in units of 2^e to keep finite.
    width = float(np.square(X).sum(axis=0).max())
    exponent = _units(max(P.scales), P.dim * width)[0]
    units = MatrixParabola(*_in_units(P.coeffs, exponent)) if exponent else P
    T = symmat.congruence(units.coeffs, X)
    _verify_reduction(units, T, k, analysis.tol * width)
    if exponent and np.abs(T).max() > math.ldexp(_FLOAT_MAX, -exponent):
        raise NonFiniteInput("the reduced coefficients exceed the float range")
    T = _in_units(T, -exponent)
    return ReductionResult(X, T[0, :k, :k], MatrixParabola(*T[:, k:, k:]))


def _verify_reduction(P, T, k, tol):
    """Check that the blocks of T = X^T S X that must vanish do, for
    S = A, B, C, each at tol * max|S|: the off-diagonal blocks of all
    three (T is exactly symmetric, so the upper one stands for both),
    and the leading k x k block of B and C.  Q(s) is then
    blockdiag(constant block, reduced Q(s)) for every s."""
    error = np.abs(T[:, :k, k:]).max(axis=(1, 2), initial=0.0)
    error[1:] = np.maximum(error[1:], np.abs(T[1:, :k, :k]).max(axis=(1, 2)))
    bad = error > tol * np.array(P.scales)
    if bad.any():
        raise InvalidCharacteristic(f"reduction is not block-diagonal in {'ABC'[bad.argmax()]}")


def is_characteristic(P: MatrixParabola, n, tol=DEFAULT_TOL):
    """Decide membership among characteristic parabolas at dimension n.

    Returns a :class:`MembershipVerdict` (ok, signature); the signature
    is None on rejection, and ``.analysis`` holds the parabola's
    :class:`ParabolaAnalysis`.  ker C is the band tol * max|C| of the
    eigenvalues of C, and k is its dimension.  The verdict reads the
    criteria of the analysis in this order: its ``inertia``, which
    needs the C-gauge (B must vanish on ker C and the constant block
    must be positive definite, both read before the gauge's two
    eigensolver calls) and H PSD of rank r >= 1, or r = 0 at the
    elliptic point k = m (C = 0 exactly, not merely small); then
    m + r + 2 <= n; then ``positive``, the Hautus test on the same
    gauge.  The inertia is None wherever the Hautus test cannot decide,
    so neither the linearization nor the deflation of ``positive`` runs
    here.
    Raises SignatureInconsistent unless n is an integer, and
    NonFiniteInput unless 0 <= tol < inf.
    """
    n = _integer(n, "ambient dimension")
    analysis = ParabolaAnalysis(P, tol)
    m, g = P.dim, analysis.c_gauge
    psd, r = analysis.inertia or (False, 0)
    moving = 0 if g is None else g.mu.size
    ok = psd and (r >= 1 or moving == 0) and m + r + 2 <= n and analysis.positive
    return MembershipVerdict(ok, Signature(n, m, r, m - moving) if ok else None, analysis)
