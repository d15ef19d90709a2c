"""Reconstruction from parabolas, equivalence certificates, and invariants.

Two manifolds are causally isometric exactly when their signatures agree
and their parabolas satisfy Q1(s) = X^T Q2(alpha s + beta) X for some
integer unimodular X, alpha > 0 and real beta; allowing real invertible
X instead gives the weaker notion of almost causal isometry (same data
up to the choice of lattice).  This module can

* rebuild manifold data realizing any member (``realize``),
* apply and verify certificates (``apply_certificate``,
  ``verify_equivalence``),
* compute the affine spectrum of B C^{-1}, an isometry invariant up to
  orientation-preserving affine maps of the parameter,
* compute the simple-spectrum normal form (eigenvalues of the
  self-adjoint part plus the Gram matrix of transverse images),
* decide almost-equivalence where the invariants allow it
  (``almost_equivalent``), and
* exhaustively search tiny integer certificates (``search_certificate``).

Realization and equivalence read the :class:`ParabolaAnalysis` of the
membership verdict: a' = B~, a'' = the rank-r root of G and the lattice
A^{1/2}.  ``almost_equivalent`` compares normal forms built from those
arrays directly, so it validates no manifold data.  Constant directions
(k > 0) take one path in both: the analysis's reduction splits them off
as a constant block, and the moving part is handled as a k = 0 member.
The elliptic point is the case k = m, whose moving part is 0 x 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import symmat
from .charpoly import MatrixParabola, ParabolaAnalysis, is_characteristic
from .construction import ManifoldData, Signature, build
from .errors import (
    BadCertificate,
    CSingular,
    DimensionMismatch,
    NotCharacteristic,
    NotSimpleSpectrum,
    UnsupportedDimension,
)
from .symmat import DEFAULT_TOL

#: Comparison tolerance for canonicalized spectra and normal forms;
#: looser than DEFAULT_TOL because canonicalization divides by spreads.
SPECTRUM_TOL = 1e-7


@dataclass(frozen=True)
class EquivalenceCertificate:
    """A witness (X, alpha, beta) with Q1(s) = X^T Q2(alpha s + beta) X.

    X may be any real invertible matrix; the causal-isometry statement
    needs an integral one (integer entries, |det X| = 1), reported by
    :attr:`integral`.  alpha must be positive: certificates preserve the
    time orientation.
    """

    X: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        X = symmat.as_square(symmat.require_finite(self.X, "certificate X"), "certificate X")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "alpha", float(symmat.require_finite(self.alpha, "alpha")))
        object.__setattr__(self, "beta", float(symmat.require_finite(self.beta, "beta")))
        if not self.alpha > 0.0:
            raise BadCertificate(f"alpha must be positive, got {self.alpha}")
        sv = np.linalg.svd(X, compute_uv=False)
        if np.any(sv <= 1e-12 * sv.max(initial=0.0)):
            raise BadCertificate("certificate matrix X is singular")

    @property
    def integral(self):
        """Whether X lies in the integer unimodular group."""
        rounded = np.round(self.X)
        if symmat.max_norm(self.X - rounded) > 1e-9:
            return False
        return abs(abs(np.linalg.det(rounded)) - 1.0) <= 1e-9

    def inverse(self):
        """Certificate mapping the other way around."""
        return EquivalenceCertificate(
            np.linalg.inv(self.X), 1.0 / self.alpha, -self.beta / self.alpha
        )


def identity_certificate(m):
    return EquivalenceCertificate(np.eye(m), 1.0, 0.0)


def reparametrize(P: MatrixParabola, alpha, beta) -> MatrixParabola:
    """The parabola s -> Q(alpha s + beta) (no congruence)."""
    A = P.A + 2.0 * beta * P.B + beta * beta * P.C
    B = alpha * (P.B + beta * P.C)
    C = alpha * alpha * P.C
    return MatrixParabola(A, B, C)


def apply_certificate(P: MatrixParabola, cert: EquivalenceCertificate) -> MatrixParabola:
    """Coefficients of X^T Q(alpha s + beta) X."""
    if cert.X.shape[0] != P.dim:
        raise DimensionMismatch(
            f"certificate is {cert.X.shape[0]}x{cert.X.shape[0]}, parabola has order {P.dim}"
        )
    Q = reparametrize(P, cert.alpha, cert.beta)
    return MatrixParabola(
        symmat.congruence(Q.A, cert.X),
        symmat.congruence(Q.B, cert.X),
        symmat.congruence(Q.C, cert.X),
    )


def _common_signature_n(P: MatrixParabola):
    # r <= m always, so 2m + 2 accommodates every signature of order m.
    return 2 * P.dim + 2


def verify_equivalence(P1, P2, cert, tol=DEFAULT_TOL, n=None):
    """Check a certificate: signatures first, then coefficients.

    True iff both parabolas are characteristic at the same ambient
    dimension with equal signatures and P1 agrees coefficient-wise with
    the certificate applied to P2 at tol relative to P1's scale.
    """
    if P1.dim != P2.dim:
        raise DimensionMismatch(
            f"parabolas have different orders {P1.dim} and {P2.dim}"
        )
    if n is None:
        n = _common_signature_n(P1)
    ok1, sig1 = is_characteristic(P1, n, tol)
    ok2, sig2 = is_characteristic(P2, n, tol)
    if not (ok1 and ok2) or sig1 != sig2:
        return False
    return P1.close_to(apply_certificate(P2, cert), tol)


@dataclass(frozen=True)
class AffineSpectrum:
    """Eigenvalues of B C^{-1} up to orientation-preserving affine maps.

    Canonical form: smallest value 0, largest 1; a spectrum whose values
    all coincide is flagged degenerate and canonicalized to zeros.  The
    uncanonicalized eigenvalues are kept in ``raw`` (they fix the affine
    alignment between two matching spectra).
    """

    values: np.ndarray
    degenerate: bool
    raw: np.ndarray

    def matches(self, other, tol=SPECTRUM_TOL):
        """Equality of canonical forms."""
        if self.degenerate != other.degenerate or self.values.size != other.values.size:
            return False
        return bool(np.allclose(self.values, other.values, atol=tol))


def affine_spectrum(P: MatrixParabola, tol=DEFAULT_TOL) -> AffineSpectrum:
    """Spectrum of C^{-1/2} B C^{-1/2}, canonicalized.

    The symmetric route makes the realness of sp(B C^{-1}) manifest.
    Requires C positive definite; reduce degenerate parabolas first.
    """
    return _affine_spectrum(ParabolaAnalysis(P, tol))


def _affine_spectrum(analysis):
    """:func:`affine_spectrum` from the eigenpairs (lambda, V) of C held
    by ``analysis``: C^{-1/2} B C^{-1/2} is orthogonally similar to the
    congruence of B by V lambda^{-1/2}.  C counts as singular on the
    analysis's ker C band, the rule membership uses."""
    P, tol = analysis.P, analysis.tol
    c_values, c_vectors = analysis.c_eig
    if P.dim == 0 or analysis.kernel.any() or c_values[0] < 0.0:
        raise CSingular("C must be positive definite for the affine spectrum")
    mu, _ = symmat.sym_eig(symmat.congruence(P.B, c_vectors / np.sqrt(c_values)))
    spread = float(mu[-1] - mu[0])
    scale = 1.0 + float(np.max(np.abs(mu)))
    if spread <= tol * scale:
        return AffineSpectrum(np.zeros_like(mu), True, mu)
    return AffineSpectrum((mu - mu[0]) / spread, False, mu)


def realize(P: MatrixParabola, n, tol=DEFAULT_TOL) -> ManifoldData:
    """Manifold data whose characteristic parabola is P.

    Normalizing by A^{-1/2} writes Q as a sum of squares
    A^{1/2}((1 + s B~)^2 + s^2 (C~ - B~^2)) A^{1/2}; the self-adjoint
    part is B~, the transverse part is any root of G = C~ - B~^2 of the
    right rank, and the lattice matrix is A^{1/2}.  A member with k > 0
    constant directions is realized as its constant block K plus its
    moving part: with X^T Q(s) X = blockdiag(K, Q_red(s)) from the
    reduction, a' = blockdiag(0, a'_red), a'' = [0 | a''_red] and the
    lattice is blockdiag(K^{1/2}, L_red) X^{-1}.  The elliptic point is
    the case k = m: X is an orthonormal eigenbasis of C = 0 (the
    identity, as LAPACK returns it) and the lattice is X^T A^{1/2}.  The
    composition with char_polynomial is the identity on parabolas up to
    roundoff.  Every factor comes from the membership verdict's analysis.
    """
    ok, sig = verdict = is_characteristic(P, n, tol)
    if not ok:
        raise NotCharacteristic(
            f"parabola fails the membership criteria at n={n}"
        )
    analysis, m, r, k = verdict.analysis, P.dim, sig.r, sig.k
    if k == 0:
        return build(sig.n, analysis.B_t, _transverse_root(analysis, r), analysis.root, tol)
    red, moving = analysis.reduction, analysis.reduced
    a_prime, a_dblprime, lattice = np.zeros((m, m)), np.zeros((r, m)), np.zeros((m, m))
    a_prime[k:, k:] = moving.B_t
    a_dblprime[:, k:] = _transverse_root(moving, r)
    lattice[:k, :k] = symmat.psd_sqrt(red.constant_block, tol)
    lattice[k:, k:] = moving.root
    return build(sig.n, a_prime, a_dblprime, lattice @ np.linalg.inv(red.X), tol)


def _transverse_root(analysis, r):
    """a'' = diag(sqrt(g)) V^T from the top r eigenpairs (g, V) of G,
    so that a''^T a'' = G on a member of Schur rank r."""
    m = analysis.P.dim
    g_values, g_vectors = analysis.g_eig
    top = np.clip(g_values[m - r :], 0.0, None)
    return np.diag(np.sqrt(top)) @ g_vectors[:, m - r :].T


@dataclass(frozen=True)
class SimpleSpectrumForm:
    """Spectrum of a' (all multiplicities one) with the Gram matrix of
    the a''-images of its unit eigenvectors, sign-canonicalized.

    ``frame`` keeps the sign-fixed eigenvector basis; it is not part of
    the comparison but lets callers assemble explicit witnesses.
    """

    eigenvalues: np.ndarray
    gram: np.ndarray
    frame: np.ndarray = field(compare=False, repr=False)

    def matches(self, other, tol=SPECTRUM_TOL):
        if self.eigenvalues.size != other.eigenvalues.size:
            return False
        scale = 1.0 + float(np.max(np.abs(self.eigenvalues)))
        if not np.allclose(self.eigenvalues, other.eigenvalues, atol=tol * scale):
            return False
        gscale = 1.0 + symmat.max_norm(self.gram)
        return bool(np.allclose(self.gram, other.gram, atol=tol * gscale))


def simple_spectrum_form(M: ManifoldData, tol=DEFAULT_TOL) -> SimpleSpectrumForm:
    """Normal form of manifolds whose a' has pairwise distinct eigenvalues.

    The Gram matrix is determined up to conjugation by diagonal signs
    (eigenvectors are defined up to sign); the greedy canonicalization
    makes the first usable entry of each row positive, scanning earlier
    columns in order.
    """
    return _simple_spectrum(M.a_prime, M.a_dblprime, tol)


def _simple_spectrum(a_prime, a_dblprime, tol):
    """:func:`simple_spectrum_form` of the arrays a' and a''."""
    values, vectors = symmat.sym_eig(a_prime)
    scale = 1.0 + float(np.max(np.abs(values)))
    if np.any(np.diff(values) <= tol * scale):
        raise NotSimpleSpectrum("a_prime has a repeated eigenvalue at this tolerance")
    images = a_dblprime @ vectors
    gram = symmat.symmetrize(images.T @ images)
    m = values.size
    signs = np.ones(m)
    gbound = tol * (1.0 + symmat.max_norm(gram))
    for i in range(1, m):
        for j in range(i):
            if abs(gram[i, j]) > gbound:
                if gram[i, j] < 0.0:
                    gram[i, :] *= -1.0
                    gram[:, i] *= -1.0
                    signs[i] = -1.0
                break
    return SimpleSpectrumForm(values, gram, vectors * signs)


@dataclass(frozen=True)
class AlmostVerdict:
    """Outcome of the almost-equivalence decision.

    ``verdict`` is "yes", "no" or "unknown"; a yes carries the explicit
    real witness as a certificate (verified numerically before being
    reported).
    """

    verdict: str
    certificate: EquivalenceCertificate | None = None
    reason: str = ""

    @property
    def is_yes(self):
        return self.verdict == "yes"


def _yes(P1, P2, X, alpha, beta, tol):
    """Package a candidate witness, verifying it coefficient-wise."""
    cert = EquivalenceCertificate(X, alpha, beta)
    if P1.close_to(apply_certificate(P2, cert), max(tol, SPECTRUM_TOL)):
        return AlmostVerdict("yes", cert, "verified witness")
    return AlmostVerdict(
        "unknown",
        None,
        "invariants match but the assembled witness failed verification",
    )


def _chol_congruence(K1, K2):
    """Z with Z^T K2 Z = K1 for positive definite blocks."""
    L1 = np.linalg.cholesky(K1)
    L2 = np.linalg.cholesky(K2)
    return np.linalg.solve(L2.T, L1.T)


def _almost_equivalent_m1(P1, P2, tol):
    """Closed form for order one: any two nonelliptic members match.

    Matching the quadratic, linear and constant coefficients of
    x^2 Q2(alpha s + beta) = Q1(s) gives x^2 = disc1/disc2 with
    disc = A - B^2/C, then alpha and beta explicitly.
    """
    a1, b1, c1 = float(P1.A[0, 0]), float(P1.B[0, 0]), float(P1.C[0, 0])
    a2, b2, c2 = float(P2.A[0, 0]), float(P2.B[0, 0]), float(P2.C[0, 0])
    disc1 = a1 - b1 * b1 / c1
    disc2 = a2 - b2 * b2 / c2
    y = disc1 / disc2
    alpha = float(np.sqrt(c1 / (y * c2)))
    beta = (b1 / (y * alpha) - b2) / c2
    return _yes(P1, P2, np.array([[np.sqrt(y)]]), alpha, beta, tol)


def almost_equivalent(P1, P2, tol=DEFAULT_TOL, n=None) -> AlmostVerdict:
    """Decide whether two parabolas differ only by a real congruence and
    an orientation-preserving affine reparametrization.

    Procedure: signatures must agree, then affine spectra; when both
    spectra are nondegenerate the alignment (alpha, beta) is pinned by
    their endpoints and the simple-spectrum forms of (a', a'') =
    (B~, rank-r root of G) are compared, assembling an explicit witness
    from the eigenvector frames and the A^{1/2} factors.  A signature
    with k > 0 compares the moving parts and matches the constant
    blocks by Cholesky factors; for the elliptic point (k = m) the
    moving parts are 0 x 0 and always match.  Degenerate or non-simple
    spectra return unknown (except order one, decided in closed form);
    every yes is re-verified numerically.
    Membership is decided once per parabola, and its analysis supplies
    the affine spectra, P1's normal form and the reductions of a
    degenerate signature; only the aligned copy of P2 is analysed anew.
    No manifold data is built.
    """
    if P1.dim != P2.dim:
        raise DimensionMismatch(
            f"parabolas have different orders {P1.dim} and {P2.dim}"
        )
    if n is None:
        n = _common_signature_n(P1)
    ok1, sig1 = first = is_characteristic(P1, n, tol)
    if not ok1:
        raise NotCharacteristic("first parabola is not characteristic")
    ok2, sig2 = second = is_characteristic(P2, n, tol)
    if not ok2:
        raise NotCharacteristic("second parabola is not characteristic")
    if sig1 != sig2:
        return AlmostVerdict(
            "no", None, f"signatures differ: {sig1.as_tuple()} vs {sig2.as_tuple()}"
        )
    return _almost_equivalent_members(first.analysis, second.analysis, sig1)


def _almost_equivalent_members(a1, a2, sig):
    """:func:`almost_equivalent` for two members of signature ``sig``,
    given their analyses."""
    P1, P2, tol = a1.P, a2.P, a1.tol
    if P1.dim == 0:
        # The moving part of the elliptic point.
        return _yes(P1, P2, np.zeros((0, 0)), 1.0, 0.0, tol)
    if sig.k > 0:
        return _almost_equivalent_degenerate(a1, a2, sig)
    if P1.dim == 1:
        return _almost_equivalent_m1(P1, P2, tol)
    sp1 = _affine_spectrum(a1)
    sp2 = _affine_spectrum(a2)
    if not sp1.matches(sp2):
        return AlmostVerdict("no", None, "affine spectra differ")
    if sp1.degenerate:
        return AlmostVerdict(
            "unknown", None, "affine spectrum is degenerate; no decision procedure"
        )
    spread1 = float(sp1.raw[-1] - sp1.raw[0])
    spread2 = float(sp2.raw[-1] - sp2.raw[0])
    alpha = spread2 / spread1
    beta = alpha * float(sp1.raw[0]) - float(sp2.raw[0])
    aligned = ParabolaAnalysis(reparametrize(P2, alpha, beta), tol)
    try:
        f1 = _simple_spectrum(a1.B_t, _transverse_root(a1, sig.r), tol)
        f2 = _simple_spectrum(aligned.B_t, _transverse_root(aligned, sig.r), tol)
    except NotSimpleSpectrum:
        return AlmostVerdict(
            "unknown", None, "self-adjoint part has repeated eigenvalues"
        )
    if not f1.matches(f2):
        return AlmostVerdict("no", None, "simple-spectrum forms differ")
    X = np.linalg.solve(aligned.root, f2.frame @ f1.frame.T @ a1.root)
    return _yes(P1, P2, X, alpha, beta, tol)


def _almost_equivalent_degenerate(a1, a2, sig):
    """Split off the constant blocks and compare the moving parts.

    Constant positive blocks are always real-congruent, so the verdict
    is that of the reduced parabolas; a yes witness is reassembled
    through the two reduction congruences, which the analyses hold.
    """
    n, m, r, k = sig.as_tuple()
    red1, red2 = a1.reduction, a2.reduction
    sub = _almost_equivalent_members(a1.reduced, a2.reduced, Signature(n - k, m - k, r, 0))
    if not sub.is_yes:
        return sub
    Z = _chol_congruence(red1.constant_block, red2.constant_block)
    inner = np.zeros((m, m))
    inner[:k, :k] = Z
    inner[k:, k:] = sub.certificate.X
    X = red2.X @ inner @ np.linalg.inv(red1.X)
    return _yes(a1.P, a2.P, X, sub.certificate.alpha, sub.certificate.beta, a1.tol)


def _int_det(X):
    m = X.shape[0]
    if m == 1:
        return int(X[0, 0])
    return int(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0])


def search_certificate(P1, P2, entry_bound=3, tol=DEFAULT_TOL):
    """Exhaustive integer certificate search for orders one and two.

    Enumerates unimodular X with entries bounded by ``entry_bound`` in
    lexicographic order; alpha and beta are forced by trace identities
    (tr C1 = alpha^2 tr X^T C2 X, then the trace of the linear
    coefficient) and each candidate is verified coefficient-wise.
    Returns the first verified certificate, or None.  The search is
    complete only within the bound.
    """
    m = P1.dim
    if P2.dim != m:
        raise DimensionMismatch(
            f"parabolas have different orders {m} and {P2.dim}"
        )
    if m > 2:
        raise UnsupportedDimension(f"exhaustive search only covers m <= 2, got m={m}")
    if not 1 <= entry_bound <= 5:
        raise UnsupportedDimension(
            f"entry bound must lie in 1..5, got {entry_bound}"
        )
    tr_b1 = float(np.trace(P1.B))
    tr_c1 = float(np.trace(P1.C))
    scale = P1.coeff_scale()
    tiny = tol * scale
    span = range(-entry_bound, entry_bound + 1)
    for entries in itertools.product(span, repeat=m * m):
        X = np.array(entries, dtype=float).reshape(m, m)
        if abs(_int_det(X)) != 1:
            continue
        tr_c2x = float(np.trace(symmat.congruence(P2.C, X)))
        if tr_c1 <= tiny and tr_c2x <= tiny:
            alpha, beta = 1.0, 0.0
        elif tr_c1 <= tiny or tr_c2x <= tiny:
            continue
        else:
            alpha = float(np.sqrt(tr_c1 / tr_c2x))
            tr_b2x = float(np.trace(symmat.congruence(P2.B, X)))
            beta = (tr_b1 / alpha - tr_b2x) / tr_c2x
        cert = EquivalenceCertificate(X, alpha, beta)
        if P1.close_to(apply_certificate(P2, cert), tol):
            return cert
    return None
