"""Seeded inputs whose answers are known by construction.

Every parabola is formed here with numpy from frame data (a', a'', L):

    A = L^T L,  B = L^T a' L,  C = L^T (a'^2 + a''^T a'') L.

The package's own ``build``/``char_polynomial`` are not used, so each
expected verdict, signature (n, m, r, k) and planted certificate follows
from the construction alone.  In the eigenbasis W of a', the first k
directions have eigenvalue 0 and a zero a''-image (pure translations);
the remaining eigenvalues are pairwise distinct, at most one of them
zero, and a'' has a column of norm >= 0.3 on each of them, which is
exactly freeness with a margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORDERS = (1, 2, 3, 5, 8)


@dataclass(frozen=True)
class Parabola:
    """Coefficients (A, B, C) of Q(s) = A + 2sB + s^2 C."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @property
    def m(self):
        return self.A.shape[0]

    def as_dict(self):
        return {"A": self.A.tolist(), "B": self.B.tolist(), "C": self.C.tolist()}


@dataclass(frozen=True)
class Frame:
    """Frame data in the eigenbasis W of a': eigenvalues ``t`` and the
    a''-images ``cols`` (r x m) of the eigenvectors."""

    W: np.ndarray
    t: np.ndarray
    cols: np.ndarray
    L: np.ndarray

    @property
    def m(self):
        return self.t.size

    @property
    def r(self):
        return self.cols.shape[0]

    @property
    def a_prime(self):
        return self.W @ np.diag(self.t) @ self.W.T

    @property
    def a_dblprime(self):
        return self.cols @ self.W.T

    def parabola(self, A_override=None):
        P = frame_parabola(self.a_prime, self.a_dblprime, self.L)
        return P if A_override is None else Parabola(_sym(A_override), P.B, P.C)


@dataclass(frozen=True)
class Certificate:
    """(X, alpha, beta) with Q1(s) = X^T Q2(alpha s + beta) X."""

    X: np.ndarray
    alpha: float
    beta: float


def _sym(S):
    return 0.5 * (S + S.T)


def frame_parabola(a_prime, a_dblprime, lattice):
    """A = L^T L, B = L^T a' L, C = L^T (a'^2 + a''^T a'') L."""
    a1 = np.asarray(a_prime, dtype=float)
    L = np.asarray(lattice, dtype=float)
    a2 = np.asarray(a_dblprime, dtype=float).reshape(-1, a1.shape[0])
    return Parabola(_sym(L.T @ L), _sym(L.T @ a1 @ L), _sym(L.T @ (a1 @ a1 + a2.T @ a2) @ L))


def orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def lattice(rng, m):
    """Invertible lattice matrix with singular values in [0.5, 3]."""
    sv = rng.uniform(0.5, 3.0, m)
    sv[0] = 3.0
    return orthogonal(rng, m) @ np.diag(sv) @ orthogonal(rng, m).T


def frame(rng, m, r, k=0):
    """Free frame data of signature (., m, r, k); needs 1 <= r <= m - k."""
    if not 1 <= r <= m - k:
        raise ValueError(f"need 1 <= r <= m - k, got m={m}, r={r}, k={k}")
    live = m - k
    mags = 0.4 + 0.5 * np.arange(live) + rng.uniform(0.0, 0.2, live)
    t_live = mags * rng.choice([-1.0, 1.0], live)
    if live > 1 and rng.random() < 0.5:
        t_live[0] = 0.0
    t = np.concatenate([np.zeros(k), rng.permutation(t_live)])
    while True:
        cols_live = rng.standard_normal((r, live))
        if np.min(np.linalg.norm(cols_live, axis=0)) < 0.3:
            continue
        sv = np.linalg.svd(cols_live, compute_uv=False)
        if sv[-1] < 0.05 * sv[0]:
            continue
        break
    cols = np.hstack([np.zeros((r, k)), cols_live])
    return Frame(orthogonal(rng, m), t, cols, lattice(rng, m))


def elliptic(rng, m):
    """Elliptic point: a' = 0, r = 0, so B = C = 0."""
    L = lattice(rng, m)
    z = np.zeros((m, m))
    return Parabola(_sym(L.T @ L), z, z.copy())


def pick_r(rng, m, k=0):
    return int(rng.integers(1, m - k + 1))


def reparametrize(P, alpha, beta):
    """Coefficients of s -> Q(alpha s + beta)."""
    A = P.A + 2.0 * beta * P.B + beta * beta * P.C
    B = alpha * (P.B + beta * P.C)
    C = alpha * alpha * P.C
    return Parabola(_sym(A), _sym(B), _sym(C))


def apply(P2, cert):
    """Coefficients of X^T Q2(alpha s + beta) X."""
    Q = reparametrize(P2, cert.alpha, cert.beta)
    X = cert.X
    return Parabola(_sym(X.T @ Q.A @ X), _sym(X.T @ Q.B @ X), _sym(X.T @ Q.C @ X))


def real_invertible(rng, m):
    """Real X with singular values in [0.5, 2]."""
    sv = rng.uniform(0.5, 2.0, m)
    return orthogonal(rng, m) @ np.diag(sv) @ orthogonal(rng, m).T


def unimodular(rng, m, bound):
    """Integer X != I with |det X| = 1 and entries within +-bound, by shears."""
    if m == 1:
        return np.array([[rng.choice([-1.0, 1.0])]])
    while True:
        X = np.eye(m)
        for _ in range(3 * m):
            i, j = rng.choice(m, size=2, replace=False)
            X[j] += rng.choice([-1.0, 1.0]) * X[i]
        if np.max(np.abs(X)) <= bound and not np.array_equal(X, np.eye(m)):
            return X


def canonical_spectrum(P):
    """Eigenvalues of C^{-1} B mapped affinely onto [0, 1], by numpy."""
    mu = np.sort(np.linalg.eigvals(np.linalg.solve(P.C, P.B)).real)
    return (mu - mu[0]) / (mu[-1] - mu[0])
