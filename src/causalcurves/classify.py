"""Reconstruction from parabolas, equivalence certificates, and invariants.

Two manifolds are causally isometric exactly when their signatures agree
and their parabolas satisfy Q1(s) = X^T Q2(alpha s + beta) X for some
integer unimodular X, alpha > 0 and real beta; allowing real invertible
X instead gives the weaker notion of almost causal isometry (same data
up to the choice of lattice).  This module can

* rebuild manifold data realizing any member (``realize``),
* apply certificates, one stacked ``symmat.congruence`` of the
  reparametrized (A, B, C), and verify them (``verify_equivalence``)
  with the one check every witness passes (``_fits``, which reads T
  entries-first for one witness and for a stack alike),
* compute the affine spectrum of B C^{-1}, an isometry invariant up to
  orientation-preserving affine maps of the parameter,
* compute the simple-spectrum normal form of manifold data (eigenvalues
  of the self-adjoint part plus the Gram matrix of transverse images),
* decide almost-equivalence (``almost_equivalent``) by the normal form
  (s + diag mu)^2 + H of each member's C-gauge, and
* exhaustively search tiny integer certificates (``search_certificate``):
  every bounded unimodular X, from a read-only table built once per
  (m, bound), is formed by one product with a read-only table of their
  Kronecker squares and checked in one pass of ``_fits`` over the
  entries-first stack, and the first that fits is returned.

Realization reads the membership verdict's :class:`ParabolaAnalysis`
through its frame Z with Z^T A Z = I (``a_frame``), one assembly for
every k, from Z = A^{-1/2} when C has full rank to the elliptic point
k = m, whose moving part is 0 x 0: from the moving columns of Z it forms
a' = B~, a'' = the rank-r root of G = C~ - B~^2 (the one place G is
formed), and the lattice is Z^{-1} = Z^T A.  ``realize`` and
``almost_equivalent`` read the verdicts' analyses, which split off
ker C themselves, so neither builds a reduction nor analyses a parabola
beyond its membership decisions, and ``almost_equivalent`` validates no
manifold data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import symmat
from .charpoly import MatrixParabola, ParabolaAnalysis, is_characteristic
from .construction import ManifoldData, build
from .errors import (
    BadCertificate,
    CSingular,
    DimensionMismatch,
    NonFiniteInput,
    NotCharacteristic,
    NotSimpleSpectrum,
    UnsupportedDimension,
)
from .symmat import DEFAULT_TOL

#: Comparison tolerance for canonicalized spectra and normal forms;
#: looser than DEFAULT_TOL because canonicalization divides by spreads.
SPECTRUM_TOL = 1e-7


@dataclass(frozen=True, eq=False)
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
        for name in ("alpha", "beta"):
            if not math.isfinite(value := float(getattr(self, name))):
                raise NonFiniteInput(f"{name} has non-finite entries")
            object.__setattr__(self, name, value)
        if not self.alpha > 0.0:
            raise BadCertificate(f"alpha must be positive, got {self.alpha}")
        sv = symmat.singular_values(X)  # descending
        if sv.size and sv[-1] <= 1e-12 * sv[0]:
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


def _reparametrized(coeffs, alpha, beta):
    """The stack (A, B, C) of s -> Q(alpha s + beta); alpha and beta may
    be arrays broadcasting against a stack of coefficients."""
    A, B, C = coeffs
    return np.array((A + 2.0 * beta * B + beta * beta * C, alpha * (B + beta * C), alpha * alpha * C))


def reparametrize(P: MatrixParabola, alpha, beta) -> MatrixParabola:
    """The parabola s -> Q(alpha s + beta) (no congruence)."""
    return MatrixParabola(*_reparametrized(P.coeffs, alpha, beta))


def apply_certificate(P: MatrixParabola, cert: EquivalenceCertificate) -> MatrixParabola:
    """Coefficients of X^T Q(alpha s + beta) X: reparametrized, then congruent."""
    if cert.X.shape[0] != P.dim:
        raise DimensionMismatch(
            f"certificate is {cert.X.shape[0]}x{cert.X.shape[0]}, parabola has order {P.dim}"
        )
    return MatrixParabola(*symmat.congruence(_reparametrized(P.coeffs, cert.alpha, cert.beta), cert.X))


def _fits(coeffs1, T, alpha, beta, tol):
    """The one check of every certificate: whether ``coeffs1`` = (A1, B1, C1)
    is X^T Q2(alpha s + beta) X, from T = X^T [A2, B2, C2] X laid out
    entries-first: (3, m^2) for one X, with coeffs1 (3, m^2) and scalar
    alpha and beta, or (3, m^2, N) for a stack of N, one bool per X, with
    coeffs1 (3, m^2, 1) and alpha and beta of length N.  Every operand
    is reduced along its entries axis, axis 1.  The image, T
    reparametrized, is summed from the terms T_A, 2 beta T_B and
    beta^2 T_C (A), alpha T_B and alpha beta T_C (B) and alpha^2 T_C (C);
    each coefficient must match within tol times the largest of its own
    entries in P1 and its terms."""
    size, error, (a, b, c) = (np.maximum.reduce(np.abs(D), axis=1, initial=0.0)
                              for D in (coeffs1, coeffs1 - _reparametrized(T, alpha, beta), T))
    shift = abs(beta)
    terms = (np.maximum(a, np.maximum(2.0 * shift * b, shift * shift * c)),
             alpha * np.maximum(b, shift * c), alpha * alpha * c)
    return np.logical_and.reduce(error <= tol * np.maximum(size, terms))


def _common_n(P1, P2, n):
    """The ambient dimension of a pair of equal order m: ``n``, or
    2m + 2, which accommodates every signature of order m (r <= m)."""
    if P1.dim != P2.dim:
        raise DimensionMismatch(f"parabolas have different orders {P1.dim} and {P2.dim}")
    return 2 * P1.dim + 2 if n is None else n


def verify_equivalence(P1, P2, cert, tol=DEFAULT_TOL, n=None):
    """Check a certificate: signatures first, then coefficients.

    True iff both parabolas are characteristic at the same ambient
    dimension with equal signatures and the certificate :func:`_fits`
    at tol.
    """
    n = _common_n(P1, P2, n)
    ok1, sig1 = is_characteristic(P1, n, tol)
    ok2, sig2 = is_characteristic(P2, n, tol)
    if not (ok1 and ok2) or sig1 != sig2:
        return False
    T = symmat.congruence(P2.coeffs, cert.X)
    return bool(_fits(P1.coeffs.reshape(3, -1), T.reshape(3, -1), cert.alpha, cert.beta, tol))


@dataclass(frozen=True, eq=False)
class AffineSpectrum:
    """Eigenvalues of B C^{-1} up to orientation-preserving affine maps.

    Canonical form: smallest value 0, largest 1; a spectrum whose values
    all coincide is flagged degenerate and canonicalized to zeros.  The
    uncanonicalized eigenvalues are kept in ascending ``raw``, with their
    lowest value ``low`` and ``spread`` (largest minus lowest), which fix
    the affine alignment between two matching spectra, and ``size`` =
    max|raw| / spread, the size of the operands of the canonical values
    (1 for a degenerate spectrum); the three are Python floats.
    """

    values: np.ndarray
    degenerate: bool
    raw: np.ndarray
    low: float
    spread: float
    size: float

    def matches(self, other, tol=SPECTRUM_TOL):
        """Equality of canonical forms at tol times the larger size."""
        if self.degenerate != other.degenerate or self.values.size != other.values.size:
            return False
        band = tol * max(self.size, other.size)
        return bool(np.abs(self.values - other.values).max(initial=0.0) <= band)


def affine_spectrum(P: MatrixParabola, tol=DEFAULT_TOL) -> AffineSpectrum:
    """Spectrum of C^{-1/2} B C^{-1/2}, canonicalized.

    The symmetric route makes the realness of sp(B C^{-1}) manifest.
    Requires C positive definite: C counts as singular on the
    analysis's ker C band, the rule membership uses.
    """
    analysis = ParabolaAnalysis(P, tol)
    if analysis.kernel.any() or analysis.c_gauge is None:
        raise CSingular("C must be positive definite for the affine spectrum")
    return _affine_spectrum(analysis)


def _affine_spectrum(analysis):
    """The :class:`AffineSpectrum` of a nonempty C-gauge of ``analysis``:
    C^{-1/2} B C^{-1/2} is orthogonally similar to W^T B W, whose
    eigenvalues mu the gauge holds in ascending order (on the moving
    directions when C is singular).  Everything is read from the two
    ends of mu, max|mu| being the larger of their magnitudes; the
    spectrum is degenerate when the spread is within tol * max|mu|."""
    mu = analysis.c_gauge.mu
    low, high = float(mu[0]), float(mu[-1])
    spread, top = high - low, max(abs(low), abs(high))
    if spread <= analysis.tol * top:
        return AffineSpectrum(np.zeros_like(mu), True, mu, low, spread, 1.0)
    return AffineSpectrum((mu - low) / spread, False, mu, low, spread, top / spread)


def realize(P: MatrixParabola, n, tol=DEFAULT_TOL) -> ManifoldData:
    """Manifold data whose characteristic parabola is P.

    In the ``a_frame`` Z of the membership verdict's analysis,
    Z^T Q(s) Z = blockdiag(I, (1 + s B~)^2 + s^2 (C~ - B~^2)) within the
    ker C bands, with (B~, C~) = Z_mov^T (B, C) Z_mov on the moving
    columns Z_mov (the last m - k): a' = blockdiag(0, B~),
    a'' = [0 | a''_moving] with a''_moving any root of G = C~ - B~^2 of
    the right rank, and the lattice is Z^{-1} = Z^T A.  When C has full
    rank Z = A^{-1/2} and the lattice is A^{1/2} = A A^{-1/2},
    symmetrized; at the elliptic point (k = m) the moving part is
    0 x 0.  The composition with char_polynomial is the identity on
    parabolas up to roundoff.  No parabola is analysed beyond the
    membership decision, and no SVD or inverse is formed.
    """
    ok, sig = verdict = is_characteristic(P, n, tol)
    if not ok:
        raise NotCharacteristic(
            f"parabola fails the membership criteria at n={n}"
        )
    m, r, k, Z = P.dim, sig.r, sig.k, verdict.analysis.a_frame
    B_t, C_t = symmat.congruence(P.coeffs[1:], Z[:, k:])
    a_prime, a_dblprime = np.zeros((m, m)), np.zeros((r, m))
    a_prime[k:, k:] = B_t
    a_dblprime[:, k:] = _transverse_root(B_t, C_t, r)
    lattice = Z.T @ P.A if k else symmat.symmetrize(P.A @ Z)
    return build(sig.n, a_prime, a_dblprime, lattice, tol)


def _transverse_root(B_t, C_t, r):
    """a'' = diag(sqrt(g)) V^T from the top r eigenpairs (g, V) of
    G = C~ - B~^2, which is formed (and symmetrized) here and nowhere
    else, so that a''^T a'' = G on a member of Schur rank r."""
    g_values, g_vectors = symmat.sym_eig(symmat.symmetrize(C_t - B_t @ B_t))
    top = slice(g_values.size - r, None)
    return np.diag(np.sqrt(np.clip(g_values[top], 0.0, None))) @ g_vectors[:, top].T


@dataclass(frozen=True, eq=False)
class SimpleSpectrumForm:
    """Spectrum of a' (all multiplicities one) with the Gram matrix of
    the a''-images of its unit eigenvectors, sign-canonicalized.

    ``frame`` keeps the sign-fixed eigenvector basis, which lets callers
    assemble explicit witnesses.  Like every record here that holds
    arrays, a form compares by identity; compare its arrays instead.
    """

    eigenvalues: np.ndarray
    gram: np.ndarray
    frame: np.ndarray = field(repr=False)


def simple_spectrum_form(M: ManifoldData, tol=DEFAULT_TOL) -> SimpleSpectrumForm:
    """Normal form of manifolds whose a' has pairwise distinct eigenvalues.

    The Gram matrix is determined up to conjugation by diagonal signs
    (eigenvectors are defined up to sign); :func:`_signs` fixes them.
    """
    values, vectors = symmat.sym_eig(symmat.symmetrize(M.a_prime))
    if np.any(values[1:] - values[:-1] <= tol * symmat.max_norm(values)):
        raise NotSimpleSpectrum("a_prime has a repeated eigenvalue at this tolerance")
    images = M.a_dblprime @ vectors
    gram = symmat.symmetrize(images.T @ images)
    signs = _signs(gram, tol * symmat.max_norm(gram))
    return SimpleSpectrumForm(values, gram * np.outer(signs, signs), vectors * signs)


def _signs(S, band):
    """Signs d with d_i S_ij d_j > 0 along a breadth-first forest of the
    entries |S_ij| > band: each tree grows from its smallest index, with
    sign +1, through all of its rows' entries in index order.  The forest
    depends only on which entries clear the band, so d S d is the same
    for every sign-conjugate of S on every entry that clears the band
    (an entry inside it may lie between two trees and change sign).
    When the first row alone reaches every index, the forest is that
    row's star: d = sign(S_0j), with d_0 = 1."""
    if len(S) and (np.abs(S[0, 1:]) > band).all():
        signs = np.sign(S[0])
        signs[0] = 1.0
        return signs
    edges = np.where(np.abs(S) > band, np.sign(S), 0.0).tolist()
    signs = [0.0] * len(edges)
    for root in range(len(signs)):
        if not signs[root]:
            signs[root] = 1.0
            queue = [root]
            for i in queue:
                for j, edge in enumerate(edges[i]):
                    if edge and not signs[j]:
                        signs[j] = signs[i] * edge
                        queue.append(j)
    return np.array(signs)


def _normal_form(analysis, spectrum):
    """(H, band, G, scale) of a k = 0 member with affine spectrum
    ``spectrum`` (an :class:`AffineSpectrum`), before its signs are fixed:
    G^T C G = I and G^T Q(s) G = (s + diag mu)^2 + scale^2 H, and
    ``band`` is the resolution of H.

    The orthogonal maps that keep diag mu fixed are block diagonal over
    the clusters of the canonical spectrum (at SPECTRUM_TOL times its
    size, the band of :meth:`AffineSpectrum.matches`); on each
    proper cluster the frame F of the C-gauge is rotated by the
    eigenbasis of H's block.  A simple spectrum (every gap clears the
    band) has no proper cluster, so G is F itself and H the gauge's.
    The scale is the spread of mu, or sqrt(max|eigenvalue of H|) when
    the spectrum is degenerate, read from the ends of the ascending h.
    The band is SPECTRUM_TOL times the gauge's operand size over
    scale^2, plus the error that dividing by scale^2 carries: twice the
    spectrum's band (the relative error of the spread) times max|H|.
    Raises NotSimpleSpectrum when a proper cluster's H-block has a
    repeated eigenvalue at SPECTRUM_TOL times the operand size: the
    block's eigenbasis is then not unique.
    """
    g = analysis.c_gauge
    H, F = g.H, g.F
    cluster_band = SPECTRUM_TOL * spectrum.size
    values = spectrum.values
    if not (values[1:] - values[:-1] > cluster_band).all():
        R = np.eye(g.mu.size)
        for c in symmat.clusters(values, cluster_band):
            if c.stop - c.start > 1:
                w, R[c, c] = symmat.sym_eig(g.H[c, c])
                if np.any(w[1:] - w[:-1] <= SPECTRUM_TOL * g.size):
                    raise NotSimpleSpectrum(f"H repeats an eigenvalue on a {c.stop - c.start}-fold cluster")
        H, F = symmat.congruence(g.H, R), F @ R
    if spectrum.degenerate:
        scale2 = max(abs(float(g.h[0])), abs(float(g.h[-1])))
    else:
        scale2 = spectrum.spread ** 2
    H = H / scale2
    band = SPECTRUM_TOL * (g.size / scale2 + 2.0 * spectrum.size * float(np.abs(H).max()))
    return H, band, F, math.sqrt(scale2)


@dataclass(frozen=True, eq=False)
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
    """Package a candidate witness that :func:`_fits` at
    max(tol, SPECTRUM_TOL), else "unknown"."""
    cert = EquivalenceCertificate(X, alpha, beta)
    T = symmat.congruence(P2.coeffs, cert.X)
    if not _fits(P1.coeffs.reshape(3, -1), T.reshape(3, -1), cert.alpha, cert.beta, max(tol, SPECTRUM_TOL)):
        return AlmostVerdict("unknown", None, "invariants match but the assembled witness failed verification")
    return AlmostVerdict("yes", cert, "verified witness")


def almost_equivalent(P1, P2, tol=DEFAULT_TOL, n=None) -> AlmostVerdict:
    """Decide whether two parabolas differ only by a real congruence and
    an orientation-preserving affine reparametrization.

    Procedure: signatures must agree, then the affine spectra (the
    eigenvalues mu of the C-gauge, canonicalized), then the normal
    forms: in the C-gauge F^T Q(s) F = (s + diag mu)^2 + H, and under
    s -> alpha s + beta the pair (mu, H) becomes ((mu + beta) / alpha,
    H / alpha^2) up to an orthogonal change of frame that fixes diag mu.
    Each member's frame is refined by the eigenbases of H on the
    clusters of its spectrum, H is divided by the square of the spread
    of mu (of sqrt(max|eigenvalue of H|) on a degenerate spectrum, order
    one included), and signs are fixed breadth-first; the forms must
    agree within the larger of the two bands.  With alpha the ratio of
    the scales and beta = alpha mu1_min - mu2_min, the witness is

        X = E2 E1^T A1 + (G2 d2)(G1 d1)^T C1 / alpha

    from the two refined, sign-fixed frames G_i d_i and the constant
    frames E_i (E_i^T A_i E_i = I, spanning ker C_i), because
    [E1 | G1 d1]^{-1} = [E1^T A1; (G1 d1)^T C1]: it maps E1 onto E2 and
    G1 d1 onto G2 d2 / alpha.  The first term is absent when C has full
    rank, and the gauges of the elliptic point are empty and always
    pair.  The witness is verified once.  The answer is
    unknown when a proper cluster's H-block has a repeated eigenvalue or
    the witness fails verification.  Membership is decided once per
    parabola, and its analysis supplies everything else; no parabola is
    analysed anew and no manifold data is built.
    """
    n = _common_n(P1, P2, n)
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
    a1, a2 = first.analysis, second.analysis
    witness = _moving_witness(a1, a2)
    if isinstance(witness, AlmostVerdict):
        return witness
    X, alpha, beta = witness
    if sig1.k:  # E1 -> E2: the constant directions.
        X = X + a2._frames[0] @ (a1._frames[0].T @ P1.A)
    return _yes(P1, P2, X, alpha, beta, tol)


def _moving_witness(a1, a2):
    """The unverified witness (X, alpha, beta) pairing the normal forms
    of the C-gauges of two members of equal signature, or a "no" or
    "unknown" :class:`AlmostVerdict`.  X maps the moving directions
    only (it vanishes on ker C1); the empty gauges of the elliptic point
    always pair, with X = 0."""
    if not a1.c_gauge.mu.size:
        return np.zeros((a1.P.dim, a1.P.dim)), 1.0, 0.0
    sp1, sp2 = _affine_spectrum(a1), _affine_spectrum(a2)
    if not sp1.matches(sp2):
        return AlmostVerdict("no", None, "affine spectra differ")
    try:
        H1, band1, G1, scale1 = _normal_form(a1, sp1)
        H2, band2, G2, scale2 = _normal_form(a2, sp2)
    except NotSimpleSpectrum as exc:
        return AlmostVerdict("unknown", None, str(exc))
    # Entries within half the band count as zero for the signs, so that
    # their signs cannot move the comparison past the band.
    band = max(band1, band2)
    d1, d2 = _signs(H1, band / 2), _signs(H2, band / 2)
    # |d1 H1 d1 - d2 H2 d2| = |H1 - e H2 e| entrywise, with e = d1 d2 = +-1.
    e = d1 * d2
    if np.abs(H1 - H2 * e * e[:, None]).max() > band:
        return AlmostVerdict("no", None, "normal forms differ")
    alpha = scale2 / scale1
    beta = alpha * sp1.low - sp2.low
    # (G1 d1)^T C1 inverts G1 d1 on the moving directions, since G1^T C1 G1 = I.
    return (G2 * d2) @ (G1 * d1).T @ a1.P.C / alpha, alpha, beta


@cache
def _unimodular_stack(m, bound):
    """Every integer m x m matrix (m <= 2) with entries in [-bound, bound]
    and determinant +-1, stacked in the lexicographic order of its
    row-major entries: built once per (m, bound) and read-only."""
    if m == 1:
        stack = np.array([[[-1.0]], [[1.0]]])
    else:
        span = np.arange(-bound, bound + 1, dtype=float)
        rows = np.stack(np.meshgrid(span, span, indexing="ij"), axis=-1).reshape(-1, 2)
        det = np.outer(rows[:, 0], rows[:, 1]) - np.outer(rows[:, 1], rows[:, 0])
        first, second = np.nonzero(np.abs(det) == 1)
        stack = np.stack([rows[first], rows[second]], axis=1)
    stack.flags.writeable = False
    return stack


@cache
def _squares_table(m, bound):
    """The Kronecker squares of the :func:`_unimodular_stack` (m, bound)
    X_0, ..., X_{N-1}, laid out for one product:
    table[k m + l, (i m + j) N + n] = X_n[k, i] X_n[l, j], so that the
    row-major entries of S times it are those of X_n^T S X_n,
    entries-first (the columns of candidate n are np.kron(X_n, X_n)).
    Exact (products of integers), built once per (m, bound) and
    read-only: 79 KB at m = 2 and bound 5."""
    Xs = _unimodular_stack(m, bound)
    table = np.einsum("nki,nlj->klijn", Xs, Xs).reshape(m * m, -1)
    table.flags.writeable = False
    return table


def search_certificate(P1, P2, entry_bound=3, tol=DEFAULT_TOL):
    """Exhaustive integer certificate search for orders one and two.

    Reads every unimodular X with entries bounded by ``entry_bound``, in
    lexicographic order, from one product of P2's stacked entries with
    the read-only :func:`_squares_table`, the one place besides
    ``symmat.congruence`` where X^T S X is formed: T = X^T [A2, B2, C2] X
    for every X, entries-first, symmetrized in the congruence's form
    S/2 + S^T/2 by swapping the entry axes i and j.  alpha and beta are
    forced by trace identities (tr C1 = alpha^2 tr T_C, then the trace
    of the linear coefficient), traces within tol times P1's scale
    counting as zero, and the first candidate that :func:`_fits` at tol,
    in one pass over the candidates that survive the traces, is
    returned, or None.  The search is complete only within the bound; a
    tol outside [0, inf) raises NonFiniteInput.
    """
    m = P1.dim
    if P2.dim != m:
        raise DimensionMismatch(
            f"parabolas have different orders {m} and {P2.dim}"
        )
    if not 1 <= m <= 2:
        raise UnsupportedDimension(f"exhaustive search only covers m in 1..2, got m={m}")
    try:
        entry_bound = operator.index(entry_bound)
    except TypeError:
        raise UnsupportedDimension(
            f"entry bound must be an integer, got {entry_bound!r}"
        ) from None
    if not 1 <= entry_bound <= 5:
        raise UnsupportedDimension(
            f"entry bound must lie in 1..5, got {entry_bound}"
        )
    if not 0.0 <= (tol := float(tol)) < math.inf:
        raise NonFiniteInput(f"tol must be finite and nonnegative, got {tol}")
    tr_b1, tr_c1 = np.trace(P1.coeffs[1:], axis1=1, axis2=2)
    band = tol * P1.coeff_scale()
    half = (P2.coeffs.reshape(3, -1) @ _squares_table(m, entry_bound)).reshape(3, m, m, -1)
    half *= 0.5
    T = (half + half.swapaxes(1, 2)).reshape(3, m * m, -1)
    tr_b2x, tr_c2x = T[1:, :: m + 1].sum(axis=1)
    # Both traces tiny force alpha = 1, beta = 0; exactly one tiny rules X out.
    if tr_c1 <= band:
        keep = np.flatnonzero(tr_c2x <= band)
        alpha, beta = np.ones(keep.size), np.zeros(keep.size)
    else:
        keep = np.flatnonzero(tr_c2x > band)
        tr_b2x, tr_c2x = tr_b2x.take(keep), tr_c2x.take(keep)
        alpha = np.sqrt(tr_c1 / tr_c2x)
        beta = (tr_b1 / alpha - tr_b2x) / tr_c2x
    fits = np.flatnonzero(_fits(P1.coeffs.reshape(3, -1, 1), T.take(keep, axis=2), alpha, beta, tol))
    if not fits.size:
        return None
    first = fits[0]
    return EquivalenceCertificate(_unimodular_stack(m, entry_bound)[keep[first]].copy(), alpha[first], beta[first])
