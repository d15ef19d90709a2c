"""Symmetric-matrix kit: golden cases, cross-checks against LAPACK and
root-sampling oracles, and algebraic property tests."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalcurves import symmat
from causalcurves.errors import (
    DimensionMismatch,
    NotPSD,
    ZeroPolynomial,
)

SQRT3 = np.sqrt(3.0)


class TestSymEig:
    def test_diagonal(self):
        values, _ = symmat.sym_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(values, [1.0, 2.0], atol=1e-12)

    def test_identity(self):
        values, vectors = symmat.sym_eig(np.eye(3))
        np.testing.assert_allclose(values, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), atol=1e-12)

    def test_offdiagonal_pair(self):
        # Characteristic polynomial lambda^2 - 1 by hand.
        values, _ = symmat.sym_eig([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-12)

    def test_matches_lapack(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 9))
            s = rng.standard_normal((m, m))
            s = s + s.T
            ours = symmat.sym_eig(s).values
            theirs = np.linalg.eigvalsh(s)
            np.testing.assert_allclose(ours, theirs, atol=1e-10 * (1 + np.max(np.abs(s))))

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 9))
            s = rng.standard_normal((m, m))
            s = s + s.T
            values, vectors = symmat.sym_eig(s)
            scale = 1.0 + np.max(np.abs(s))
            recon = vectors @ np.diag(values) @ vectors.T
            assert np.max(np.abs(recon - s)) <= 1e-10 * scale
            assert np.max(np.abs(vectors.T @ vectors - np.eye(m))) <= 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        arrays(
            np.float64,
            (4, 4),
            elements=st.floats(min_value=-50.0, max_value=50.0),
        )
    )
    def test_reconstruction_hypothesis(self, raw):
        s = raw + raw.T
        values, vectors = symmat.sym_eig(s)
        scale = 1.0 + np.max(np.abs(s))
        assert np.max(np.abs(vectors @ np.diag(values) @ vectors.T - s)) <= 1e-10 * scale
        assert symmat.max_norm(vectors.T @ vectors - np.eye(4)) <= 1e-10


class TestPredicates:
    def test_identity_is_pd(self):
        assert symmat.is_pd(np.eye(2), 1e-9)

    def test_semidefinite_boundary_is_not_pd(self):
        assert not symmat.is_pd(np.diag([1.0, 0.0]))

    def test_perturbed_identity_is_pd(self):
        # Eigenvalues 1 +- 1/2 by hand.
        assert symmat.is_pd([[1.0, 0.5], [0.5, 1.0]])

    def test_strictness_near_boundary(self):
        # Min eigenvalue sits exactly at the tolerance threshold: false.
        eps = 1e-9
        assert not symmat.is_pd(np.diag([eps, 1.0]), tol=eps)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(symmat.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            symmat.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_two_by_two(self):
        # Eigen-pairs of [[2,1],[1,2]] by hand: 1 at (1,-1), 3 at (1,1).
        expected = np.array(
            [
                [(1.0 + SQRT3) / 2.0, (SQRT3 - 1.0) / 2.0],
                [(SQRT3 - 1.0) / 2.0, (1.0 + SQRT3) / 2.0],
            ]
        )
        np.testing.assert_allclose(
            symmat.psd_sqrt([[2.0, 1.0], [1.0, 2.0]]), expected, atol=1e-12
        )

    def test_psd_cases(self):
        # Semidefinite input has a root; indefinite or negative input has none.
        np.testing.assert_allclose(symmat.psd_sqrt(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))
        for S in ([[0.0, 0.5], [0.5, 0.0]], -np.eye(2)):
            with pytest.raises(NotPSD):
                symmat.psd_sqrt(S)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            symmat.psd_sqrt(np.diag([1.0, -1.0]))

    def test_clamps_tiny_negative(self):
        root = symmat.psd_sqrt(np.diag([1.0, -1e-12]))
        assert np.linalg.eigvalsh(root)[0] >= -1e-9 * (1.0 + symmat.max_norm(root))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        arrays(
            np.float64,
            (3, 3),
            elements=st.floats(min_value=-5.0, max_value=5.0),
        )
    )
    def test_square_roundtrip_hypothesis(self, x):
        s = x.T @ x
        root = symmat.psd_sqrt(s)
        scale = 1.0 + np.max(np.abs(s))
        assert np.max(np.abs(root @ root - s)) <= 1e-9 * scale
        assert np.linalg.eigvalsh(root)[0] >= -1e-9 * (1.0 + symmat.max_norm(root))


def _rank(S, tol=1e-9):
    """Eigenvalues outside the band tol * (1 + max|S|)."""
    S = np.asarray(S, dtype=float)
    return int(np.sum(np.abs(np.linalg.eigvalsh(S)) > tol * (1.0 + np.max(np.abs(S)))))


class TestRankAndCongruence:
    def test_rank_examples(self):
        assert _rank([[1.0, 1.0], [1.0, 1.0]]) == 1  # eigenvalues 0, 2
        assert _rank(np.zeros((2, 2))) == 0
        assert _rank(np.eye(3)) == 3

    def test_congruence_examples(self):
        np.testing.assert_allclose(symmat.congruence(np.eye(2), np.eye(2)), np.eye(2))
        np.testing.assert_allclose(
            symmat.congruence(np.eye(2), [[1.0, 1.0], [0.0, 1.0]]),
            [[1.0, 1.0], [1.0, 2.0]],
        )
        np.testing.assert_allclose(
            symmat.congruence(np.diag([1.0, 2.0]), np.diag([2.0, 1.0])),
            np.diag([4.0, 2.0]),
        )

    def test_congruence_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            symmat.congruence(np.eye(2), np.eye(3))

    def test_rank_congruence_invariance(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 6))
            rank = int(rng.integers(0, m + 1))
            basis = np.linalg.qr(rng.standard_normal((m, m)))[0]
            values = np.zeros(m)
            values[:rank] = rng.uniform(0.5, 3.0, rank) * rng.choice([-1, 1], rank)
            s = basis @ np.diag(values) @ basis.T
            while True:
                x = rng.standard_normal((m, m))
                if abs(np.linalg.det(x)) > 0.3:
                    break
            assert _rank(symmat.congruence(s, x), 1e-7) == rank


class TestDetPoly:
    def test_scalar_parabola(self):
        coeffs = symmat.det_poly([[1.0]], [[0.0]], [[1.0]])
        np.testing.assert_allclose(coeffs, [1.0, 0.0, 1.0], atol=1e-12)

    def test_constant(self):
        coeffs = symmat.det_poly(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_allclose(coeffs, [1.0], atol=1e-12)

    def test_factored_quartic(self):
        # det = (1+s)^2 (1+s^2) = 1 + 2s + 2s^2 + 2s^3 + s^4.
        coeffs = symmat.det_poly(np.eye(2), np.diag([1.0, 0.0]), np.eye(2))
        np.testing.assert_allclose(coeffs, [1.0, 2.0, 2.0, 2.0, 1.0], atol=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            symmat.det_poly(np.eye(2), np.eye(3), np.eye(2))

    def test_matches_direct_determinant(self, rng):
        for _ in range(12):
            m = int(rng.integers(1, 4))
            a = rng.standard_normal((m, m))
            b = rng.standard_normal((m, m))
            c = rng.standard_normal((m, m))
            a, b, c = a + a.T, b + b.T, c + c.T
            coeffs = symmat.det_poly(a, b, c)
            for s in rng.uniform(-4.0, 4.0, size=10):
                direct = np.linalg.det(a + 2 * s * b + s * s * c)
                interp = symmat.poly_eval(coeffs, s)
                assert abs(direct - interp) <= 1e-8 * (1.0 + abs(direct))


def _poly_from_real_and_complex(rng, n_real, n_pairs):
    real = np.sort(rng.uniform(-4.0, 4.0, n_real))
    while n_real > 1 and np.min(np.diff(real)) < 0.5:
        real = np.sort(rng.uniform(-4.0, 4.0, n_real))
    roots = list(real)
    for _ in range(n_pairs):
        re, im = rng.uniform(-2, 2), rng.uniform(0.5, 2)
        roots.extend([complex(re, im), complex(re, -im)])
    coeffs = npoly.polyfromroots(roots).real
    return coeffs * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), real


def _sign_change_count(coeffs, lo, hi, samples=40001):
    xs = np.linspace(lo, hi, samples)
    vals = npoly.polyval(xs, coeffs)
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] * signs[1:] < 0))


class TestSturm:
    """Distinct real roots from ``real_roots`` (companion-matrix
    eigenvalues, clustered); the class keeps its historical name."""

    def test_no_real_roots(self):
        assert symmat.real_roots([1.0, 0.0, 1.0]).size == 0  # 1 + s^2

    def test_two_real_roots(self):
        assert symmat.real_roots([-1.0, 0.0, 1.0]).size == 2  # s^2 - 1

    def test_double_root_counted_once(self):
        # (1+s)^2 (1+s^2): exactly one distinct real root.
        coeffs = npoly.polymul(npoly.polymul([1, 1], [1, 1]), [1, 0, 1])
        assert symmat.real_roots(coeffs).size == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            symmat.real_roots([0.0, 0.0])

    def test_constant_has_no_roots(self):
        assert symmat.real_roots([3.0]).size == 0

    def test_against_sampling_oracle(self, rng):
        for _ in range(60):
            n_real = int(rng.integers(0, 4))
            n_pairs = int(rng.integers(0, (6 - n_real) // 2 + 1))
            if n_real + 2 * n_pairs == 0:
                continue
            coeffs, real = _poly_from_real_and_complex(rng, n_real, n_pairs)
            # Cauchy's bound: every real root lies inside [-bound, bound].
            bound = 1.0 + np.max(np.abs(coeffs[:-1])) / abs(coeffs[-1])
            sampled = _sign_change_count(coeffs, -bound, bound)
            assert sampled == n_real  # grid is fine enough for separated roots
            assert symmat.real_roots(coeffs).size == n_real

    def test_root_isolation_against_numpy(self, rng):
        for _ in range(30):
            n_real = int(rng.integers(1, 4))
            n_pairs = int(rng.integers(0, 2))
            coeffs, real = _poly_from_real_and_complex(rng, n_real, n_pairs)
            found = symmat.real_roots(coeffs)
            assert found.size == n_real
            np.testing.assert_allclose(found, real, atol=1e-7)

    def test_isolates_double_root(self):
        # (1+s)^2 (1+s^2) -> [-1]; the triple root of (s-1)^3 (s-2) -> [1, 2].
        cases = [
            (npoly.polymul(npoly.polymul([1, 1], [1, 1]), [1, 0, 1]), [-1.0]),
            (npoly.polyfromroots([1.0, 1.0, 1.0, 2.0]), [1.0, 2.0]),
        ]
        for coeffs, expected in cases:
            roots = symmat.real_roots(coeffs)
            assert roots.size == len(expected)
            np.testing.assert_allclose(roots, expected, atol=1e-8)


class TestTrim:
    def test_trim_keeps_interior_zeros(self):
        out = symmat.trim_poly([1.0, 0.0, 1.0, 1e-14])
        np.testing.assert_allclose(out, [1.0, 0.0, 1.0])

    def test_trim_zero(self):
        assert symmat.is_zero_poly(symmat.trim_poly([0.0, 0.0]))
