"""Shared random-data generators for the test suite.

All randomness flows through seeded numpy Generators so failures are
reproducible; tests that need many samples loop over a fixed seed.
"""

import numpy as np
import pytest

from causalcurves import (
    EquivalenceCertificate,
    ManifoldData,
    MatrixParabola,
    apply_certificate,
    build,
    char_polynomial,
)
from causalcurves.minkowski import LorentzFrame


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_orthogonal(rng, m):
    q, rmat = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(rmat))


def random_lattice(rng, m, cond_max=1e3):
    """Invertible matrix with condition number well below cond_max."""
    u = random_orthogonal(rng, m)
    v = random_orthogonal(rng, m)
    # Spread of singular values kept to about 20, far below the cap.
    sv = rng.uniform(0.5, 3.0, size=m)
    sv[0] = 3.0
    return u @ np.diag(sv) @ v.T


def random_free_arrays(rng, m=None, r=None, zero_eigs=None, k_zero_cols=0):
    """Raw (a_prime, a_dblprime) satisfying the freeness condition.

    ``zero_eigs`` counts zero eigenvalues of a_prime; ``k_zero_cols`` of
    them additionally get a zero a''-image, producing k > 0 data.
    """
    if m is None:
        m = int(rng.integers(1, 4))
    if r is None:
        r = int(rng.integers(1, min(m, 2) + 1))
    if k_zero_cols + r > m:
        raise ValueError(
            f"need m >= k + r to build rank-{r} data with k={k_zero_cols}, got m={m}"
        )
    if zero_eigs is None:
        zero_eigs = int(rng.integers(0, m))
    # The transverse map (rank r) can separate at most r kernel
    # directions of a_prime; more zero eigenvalues would force extra
    # pure-translation directions beyond the k requested.
    zero_eigs = min(max(zero_eigs, k_zero_cols), k_zero_cols + r)
    w = random_orthogonal(rng, m)
    values = np.zeros(m)
    nonzero = m - zero_eigs
    # Distinct magnitudes keep eigen-clusters trivial.
    magnitudes = 0.4 + 0.5 * np.arange(nonzero) + rng.uniform(0.0, 0.2, nonzero)
    values[zero_eigs:] = magnitudes * rng.choice([-1.0, 1.0], nonzero)
    a_prime = w @ np.diag(values) @ w.T
    while True:
        cols = rng.standard_normal((r, m))
        for i in range(k_zero_cols):
            cols[:, i] = 0.0
        live = cols[:, k_zero_cols:]
        if live.size == 0 or np.min(np.linalg.norm(live, axis=0)) < 0.3:
            continue
        if np.linalg.matrix_rank(live, tol=1e-6) < r:
            continue
        break
    a_dbl = cols @ w.T
    return 0.5 * (a_prime + a_prime.T), a_dbl


def random_manifold(rng, m=None, r=None, k=0, zero_eigs=None, extra_dim=0, cond_max=1e3):
    """Validated manifold data; k counts pure-translation directions.

    For k > 0 pass explicit m and r with r <= m - k so the transverse
    map can still have full rank on the remaining columns.
    """
    a_prime, a_dbl = random_free_arrays(
        rng, m=m, r=r, zero_eigs=zero_eigs, k_zero_cols=k
    )
    m = a_prime.shape[0]
    r = a_dbl.shape[0]
    lattice = random_lattice(rng, m, cond_max)
    n = m + r + 2 + extra_dim
    M = build(n, a_prime, a_dbl, lattice)
    from causalcurves import signature_of

    assert signature_of(M).k == k, "generator produced unexpected kernel"
    return M


def random_elliptic(rng, m=None, extra_dim=1):
    if m is None:
        m = int(rng.integers(1, 4))
    lattice = random_lattice(rng, m)
    return build(m + 2 + extra_dim, np.zeros((m, m)), np.zeros((0, m)), lattice)


def random_violating_arrays(rng, m=None, r=None):
    """Data violating freeness: a'' zeroed on one nonzero eigenvector."""
    if m is None:
        m = int(rng.integers(1, 4))
    a_prime, a_dbl = random_free_arrays(rng, m=m, r=r, zero_eigs=0)
    values, vectors = np.linalg.eigh(a_prime)
    idx = int(rng.integers(0, m))
    w = vectors[:, idx]
    a_dbl = a_dbl @ (np.eye(m) - np.outer(w, w))
    return a_prime, a_dbl


def unvalidated_manifold(a_prime, a_dblprime, lattice=None, extra_dim=0):
    """ManifoldData built without the build() invariants (tests only)."""
    m = a_prime.shape[0]
    r = a_dblprime.shape[0]
    if lattice is None:
        lattice = np.eye(m)
    frame = LorentzFrame(m + r + 2 + extra_dim, m, r)
    return ManifoldData(frame, a_prime, a_dblprime, lattice)


def rounding_asymmetric(S):
    """Copy of a symmetric S whose strict lower triangle is off by 8 ulps
    (relative), as a computed product may leave it; symmetrize() of it
    differs from S and from it below the diagonal wherever S is nonzero."""
    S = np.array(S, dtype=float)
    below = np.tril_indices(S.shape[0], -1)
    S[below] *= 1.0 + 8.0 * np.finfo(float).eps
    return S


def random_characteristic_parabola(rng, m=None, r=None, simple=False):
    """Characteristic parabola with C positive definite (k = 0).

    ``simple`` keeps the eigenvalues of a_prime pairwise distinct (at
    most one zero eigenvalue).
    """
    if simple and m is None:
        m = int(rng.integers(2, 4))
    zero_eigs = int(rng.integers(0, 2)) if simple else None
    M = random_manifold(rng, m=m, r=r, k=0, zero_eigs=zero_eigs)
    return char_polynomial(M)


def random_unimodular(rng, m, ops=4):
    """Integer matrix of determinant +-1 via random shears and swaps."""
    x = np.eye(m)
    for _ in range(ops):
        i, j = rng.integers(0, m, size=2)
        if i == j:
            continue
        if rng.random() < 0.8:
            x[j] += rng.choice([-1.0, 1.0]) * x[i]
        else:
            x[[i, j]] = x[[j, i]]
    return x


def random_real_invertible(rng, m):
    while True:
        x = rng.standard_normal((m, m))
        if abs(np.linalg.det(x)) > 0.2:
            return x


def wide_map_pair(seed):
    """A member P of order 2, 3, 5 or 8 (by seed mod 4), its image Q under
    a wide map (alpha = 10^[-2, 2], beta in [-300, 300]) and that map."""
    rng = np.random.default_rng(seed)
    m = [2, 3, 5, 8][seed % 4]
    P = char_polynomial(random_manifold(rng, m=m, zero_eigs=0))
    cert = EquivalenceCertificate(
        random_real_invertible(rng, m), 10 ** rng.uniform(-2, 2), rng.uniform(-300, 300)
    )
    return P, apply_certificate(P, cert), cert


def wide_degenerate_member(seed):
    """A member P with constant directions and its Schur rank r: order
    m = 2, 3, 5 or 8 (by seed mod 4), k in [1, m) and r in [1, m - k];
    odd seeds map it by X^T Q(alpha s + beta) X with X unimodular or
    real, alpha = 10^[-3, 3] and beta in [-500, 500]."""
    rng = np.random.default_rng(seed)
    m = [2, 3, 5, 8][seed % 4]
    k = int(rng.integers(1, m))
    r = int(rng.integers(1, m - k + 1))
    P = char_polynomial(random_manifold(rng, m=m, r=r, k=k))
    if seed % 2:
        X = random_unimodular(rng, m) if rng.random() < 0.5 else random_real_invertible(rng, m)
        cert = EquivalenceCertificate(X, 10 ** rng.uniform(-3, 3), rng.uniform(-500, 500))
        P = apply_certificate(P, cert)
    return P, r
