"""The main construction: unipotent affine actions on Minkowski space.

A manifold is encoded by data (n, a', a'', lattice) in the canonical
frame: a' is the self-adjoint part of the structure map on T (symmetric
once -ell is the standard inner product there), a'' maps T into R, and
the lattice columns generate the fundamental group inside T.  The affine
action of x in T is

    lambda(x) v = v + l0(v) ax - (ell(ax, v) + l0(v) ell(ax, ax) / 2) v0,
    tau(x)      = x - ell(ax, x) v0 / 2,
    gamma_x(v)  = lambda(x) v + tau(x),

where ax = a'x + a''x sits inside N.  The action is free exactly when
a'' is injective on every eigenspace of a' with nonzero eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symmat
from .errors import (
    DimensionMismatch,
    FreenessViolated,
    InconsistentHolonomy,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficientR,
    SignatureInconsistent,
    ZeroParameter,
)
from .minkowski import LorentzFrame, _integer
from .symmat import DEFAULT_TOL

#: Eigenvalue clustering / injectivity threshold for the freeness test.
FREENESS_TOL = 1e-8


@dataclass(frozen=True)
class Signature:
    """The 4-tuple (n, m, r, k) attached to a manifold."""

    n: int
    m: int
    r: int
    k: int

    def __post_init__(self):
        for name in ("n", "m", "r", "k"):
            if type(value := getattr(self, name)) is not int:
                object.__setattr__(self, name, _integer(value, name))
        if min(self.n, self.m, self.r, self.k) < 0:
            raise SignatureInconsistent(f"negative entry in {self.as_tuple()}")
        if self.m + self.r + 2 > self.n:
            raise SignatureInconsistent(
                f"m + r + 2 = {self.m + self.r + 2} exceeds n = {self.n}"
            )
        if self.r + self.k > self.m:
            raise SignatureInconsistent(
                f"r + k = {self.r + self.k} exceeds m = {self.m}"
            )

    def as_tuple(self):
        return (self.n, self.m, self.r, self.k)


@dataclass(frozen=True, eq=False)
class ManifoldData:
    """Canonical-frame realization (frame, a', a'', lattice).

    Instances made directly are only shape-checked; go through
    :func:`build` to have all invariants (symmetry, freeness, lattice
    nondegeneracy, rank of a'') verified.
    """

    frame: LorentzFrame
    a_prime: np.ndarray
    a_dblprime: np.ndarray
    lattice: np.ndarray

    def __post_init__(self):
        m, r = self.frame.m, self.frame.r
        a_prime = np.asarray(self.a_prime, dtype=float)
        a_dbl = np.asarray(self.a_dblprime, dtype=float)
        if a_dbl.size == 0:
            a_dbl = a_dbl.reshape(0, m)
        lattice = np.asarray(self.lattice, dtype=float)
        if a_prime.shape != (m, m):
            raise DimensionMismatch(f"a_prime must be {m}x{m}, got {a_prime.shape}")
        if a_dbl.shape != (r, m):
            raise DimensionMismatch(f"a_dblprime must be {r}x{m}, got {a_dbl.shape}")
        if lattice.shape != (m, m):
            raise DimensionMismatch(f"lattice must be {m}x{m}, got {lattice.shape}")
        object.__setattr__(self, "a_prime", a_prime)
        object.__setattr__(self, "a_dblprime", a_dbl)
        object.__setattr__(self, "lattice", lattice)

    @property
    def n(self):
        return self.frame.n

    @property
    def m(self):
        return self.frame.m

    @property
    def r(self):
        return self.frame.r

    @property
    def elliptic(self):
        return self.r == 0


def _freeness_violation(a_prime, a_dblprime, tol=FREENESS_TOL):
    """First eigen-cluster of a' with nonzero eigenvalue on which a''
    drops rank, or None.  Eigenvalues within tol * max|eigenvalue| are
    clustered so multiple eigenvalues are tested as one eigenspace.
    a_prime must be exactly symmetric."""
    values, vectors = symmat.sym_eig(a_prime)
    band = tol * symmat.max_norm(values)
    for c in symmat.clusters(values, band):
        t = float(np.mean(values[c]))
        if abs(t) > band:
            block = a_dblprime @ vectors[:, c]
            smin = float(symmat.singular_values(block)[-1]) if block.size else 0.0
            if block.shape[0] < block.shape[1] or smin <= tol * symmat.max_norm(a_dblprime):
                return t, vectors[:, c.start], smin
    return None


def check_free(M: ManifoldData, tol=FREENESS_TOL):
    """Whether the affine action of the lattice is free (and proper).

    True iff a'' is injective on every eigenspace of a' whose eigenvalue
    is nonzero beyond tolerance.
    """
    return _freeness_violation(symmat.symmetrize(M.a_prime), M.a_dblprime, tol) is None


def build(n, a_prime, a_dblprime, lattice, tol=DEFAULT_TOL):
    """Validate and assemble manifold data in the canonical frame.

    a_dblprime has one row per R-coordinate (r rows); r = 0 with a' = 0
    gives the elliptic case of a pure translation lattice.
    """
    a_prime = symmat.as_square(symmat.require_finite(a_prime, "a_prime"), "a_prime")
    m = a_prime.shape[0]
    a_dbl = symmat.require_finite(a_dblprime, "a_dblprime")
    if a_dbl.size == 0:
        a_dbl = a_dbl.reshape(0, m)
    if a_dbl.ndim != 2 or a_dbl.shape[1] != m:
        raise DimensionMismatch(
            f"a_dblprime must have {m} columns, got shape {a_dbl.shape}"
        )
    r = a_dbl.shape[0]
    lattice = symmat.as_square(symmat.require_finite(lattice, "lattice"), "lattice")
    if lattice.shape[0] != m:
        raise DimensionMismatch(f"lattice must be {m}x{m}, got {lattice.shape}")

    frame = LorentzFrame(n, m, r)

    skew = symmat.max_norm(a_prime - a_prime.T)
    if skew > tol * symmat.max_norm(a_prime):
        raise NotSymmetric(
            f"a_prime deviates from symmetry by {skew:.3e}; the structure map "
            "must be ell-symmetric"
        )
    a_prime = symmat.symmetrize(a_prime)

    sv = symmat.singular_values(lattice)
    if sv[-1] <= tol * sv[0]:
        raise NotPositiveDefinite(
            "lattice generators are linearly dependent; their Gram matrix is "
            "not positive definite"
        )

    if r > 0:
        dsv = symmat.singular_values(a_dbl)
        if int(np.sum(dsv > tol * dsv[0])) < r:
            raise RankDeficientR(
                f"a_dblprime has rank below {r}; its rows do not span R"
            )

    violation = _freeness_violation(a_prime, a_dbl)
    if violation is not None:
        t, vec, smin = violation
        raise FreenessViolated(
            f"a_dblprime degenerates (min singular value {smin:.3e}) on the "
            f"eigenspace of a_prime with eigenvalue {t:.6g}",
            eigenvalue=t,
            eigenvector=vec,
        )

    M = ManifoldData(frame, a_prime, a_dbl, lattice)
    signature_of(M, tol)  # Signature rejects r + k > m
    return M


def a_vector(M: ManifoldData, x):
    """ax = a'x + a''x as a vector of the ambient space (inside N)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (M.m,):
        raise DimensionMismatch(f"x must live in T (length {M.m}), got shape {x.shape}")
    return M.frame.embed_N(M.a_prime @ x, M.a_dblprime @ x if M.r else None)


def lambda_of(M: ManifoldData, x):
    """Matrix of the linear part lambda(x) in canonical coordinates."""
    frame = M.frame
    n = frame.n
    ax = a_vector(M, x)
    # ell(ax, .) as a row vector; ax lies in N so only the first n-2
    # coordinates contribute, with the negative-definite sign.
    ell_ax = np.zeros(n)
    ell_ax[: n - 2] = -ax[: n - 2]
    ell_ax_ax = frame.ell(ax, ax)
    l0_row = np.zeros(n)
    l0_row[n - 1] = 1.0
    lam = np.eye(n)
    lam += np.outer(ax, l0_row)
    lam -= np.outer(frame.v0, ell_ax + 0.5 * ell_ax_ax * l0_row)
    return lam


def tau_of(M: ManifoldData, x):
    """Translation part tau(x) = x - ell(ax, x) v0 / 2."""
    x = np.asarray(x, dtype=float)
    if x.shape != (M.m,):
        raise DimensionMismatch(f"x must live in T (length {M.m}), got shape {x.shape}")
    out = M.frame.embed_N(x)
    # ell(ax, x) = ell(a'x, x) = -(a'x) . x since a''x is orthogonal to T.
    out -= 0.5 * float(-(M.a_prime @ x) @ x) * M.frame.v0
    return out


def gamma_apply(M: ManifoldData, x, v):
    """The affine action gamma_x(v) = lambda(x) v + tau(x)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (M.n,):
        raise DimensionMismatch(f"v must have length {M.n}, got shape {v.shape}")
    return lambda_of(M, x) @ v + tau_of(M, x)


def signature_of(M: ManifoldData, tol=DEFAULT_TOL):
    """(n, m, r, k) with k = dim(ker a' intersect ker a'')."""
    stacked = np.vstack([M.a_prime, M.a_dblprime])
    sv = symmat.singular_values(stacked)
    rank = int(np.sum(sv > tol * symmat.max_norm(sv)))
    return Signature(M.n, M.m, M.r, M.m - rank)


def euclidean_factor_dim(M: ManifoldData):
    """Dimension of the flat Euclidean factor split off by the frame."""
    return M.frame.dim_euclidean


def recover_a_from_holonomy(frame: LorentzFrame, lambdas, tol=DEFAULT_TOL):
    """Recover (a', a'') from the holonomy matrices of a T-basis.

    Column i of the structure map is the N-projection of lambda_i v1.
    Each lambda_i must fix v0; the recovered a' must come out symmetric.
    """
    m = frame.m
    if len(lambdas) != m:
        raise DimensionMismatch(f"expected {m} holonomy matrices, got {len(lambdas)}")
    a_cols = np.zeros((frame.n - 2, m))
    for i, lam in enumerate(lambdas):
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (frame.n, frame.n):
            raise DimensionMismatch(
                f"holonomy matrix {i} must be {frame.n}x{frame.n}, got {lam.shape}"
            )
        drift = float(np.max(np.abs(lam @ frame.v0 - frame.v0)))
        if drift > tol * symmat.max_norm(lam):
            raise InconsistentHolonomy(
                f"holonomy matrix {i} moves v0 by {drift:.3e}"
            )
        a_cols[:, i] = frame.proj_N(lam @ frame.v1)[: frame.n - 2]
    a_prime = a_cols[:m, :]
    a_dbl = a_cols[m : m + frame.r, :]
    tail = a_cols[m + frame.r :, :]
    if tail.size and symmat.max_norm(tail) > tol * symmat.max_norm(a_cols):
        raise InconsistentHolonomy("recovered map leaks into the Euclidean factor")
    skew = symmat.max_norm(a_prime - a_prime.T)
    if skew > tol * symmat.max_norm(a_prime):
        raise InconsistentHolonomy(
            f"recovered a_prime deviates from symmetry by {skew:.3e}"
        )
    return symmat.symmetrize(a_prime), a_dbl


def example_4d():
    """The four-dimensional manifold generated by a single loop.

    In canonical coordinates the generator acts with a' = 0, a'' = 1 on
    the one-dimensional T; signature (4, 1, 1, 0).
    """
    return build(4, [[0.0]], [[1.0]], [[1.0]])


def example_5d(t, r):
    """The five-dimensional family of signature (5, 2, 1, 0).

    The structure map sends the first basis vector of T to t times the
    R-direction and the second to itself plus r times the R-direction;
    both parameters must be nonzero for the action to be free.
    """
    if t == 0 or r == 0:
        raise ZeroParameter(f"parameters must be nonzero, got t={t}, r={r}")
    return build(
        5,
        [[0.0, 0.0], [0.0, 1.0]],
        [[float(t), float(r)]],
        np.eye(2),
    )
